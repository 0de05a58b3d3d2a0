"""Bivariate polynomials in X, Y with coefficients in the lambda field.

A polynomial is a sorted tuple of (exponents, nonzero Scalar) terms.  The
public constructor merges and sorts outside input; arithmetic results are
already canonical and skip it through BivariatePoly._trusted.  Every sum
and product, `+`, `-`, `*` and `scale` included, is one sum of products,
`dot`: one pass over integer accumulators when every coefficient has an
integer denominator, as at a numeric parameter and in most symbolic work,
else one qlambda.dot per monomial.  Each accumulator is a numerator over
an integer denominator, which _rescale brings to the lcm of the
denominators it meets.
"""
from __future__ import annotations

from math import gcd

from ._record import Record
from .qlambda import MINUS_ONE, ONE, Scalar, _canon
from .qlambda import dot as scalar_dot


class BivariatePoly(Record):
    """Finitely supported (x-exponent, y-exponent) -> nonzero Scalar."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        merged: dict[tuple[int, int], Scalar] = {}
        for (i, j), c in terms:
            if i < 0 or j < 0:
                raise ValueError("negative exponent")
            c = Scalar.of(c)
            if (i, j) in merged:
                c = merged[(i, j)] + c
            merged[(i, j)] = c
        items = tuple(sorted((k, c) for k, c in merged.items() if c))
        object.__setattr__(self, "terms", items)

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls(())

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "BivariatePoly":
        return cls((((i, j), Scalar.of(c)),))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        return dot(((self, UNIT), (other, UNIT)))

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly._trusted(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return dot(((self, UNIT), (other, MINUS_UNIT)))

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        return dot(((self, other),))

    def scale(self, c) -> "BivariatePoly":
        """self times the constant c: self or -self for c = +-1, else a dot
        against c as a polynomial."""
        c = Scalar.of(c)
        if c == ONE:
            return self
        if c == MINUS_ONE:
            return -self
        return dot(((self, BivariatePoly._trusted((((0, 0), c),) if c
                                                   else ())),))

    def total_degree(self) -> int | None:
        if not self.terms:
            return None
        return max(i + j for (i, j), _ in self.terms)

    def is_homogeneous_of(self, d: int) -> bool:
        return all(i + j == d for (i, j), _ in self.terms)

    def is_scalar(self) -> bool:
        """Nonzero constant (a unit of the graded ring)."""
        return len(self.terms) == 1 and self.terms[0][0] == (0, 0)

    def specialize(self, value) -> "BivariatePoly":
        """The monomials stay sorted and distinct; only the coefficients
        that vanish at value drop out."""
        terms = ((k, c.specialize(value)) for k, c in self.terms)
        return BivariatePoly._trusted(tuple((k, c) for k, c in terms if c))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in self.terms:
            mono = ""
            for name, e in (("X", i), ("Y", j)):
                if e:
                    mono += name if e == 1 else f"{name}^{e}"
            parts.append(f"({_scalar_str(c)}){mono}")
        return " + ".join(parts)


def _rescale(s: list, q: int) -> int:
    """Bring s = [den, n0, n1, ...], the integer coefficients in the
    parameter of a numerator over the positive integer den, over
    lcm(den, q); return lcm/q, the factor a product over q enters with."""
    den = s[0]
    g = gcd(den, q)
    if g != q:
        r = q // g
        s[0] = den * r
        for k in range(1, len(s)):
            s[k] *= r
    return den // g


def dot(pairs) -> BivariatePoly:
    """The sum of p*q over the (p, q) pairs, the result built once.  A sum
    or difference is a dot against UNIT or MINUS_UNIT.

    One pass over the term products.  Each monomial keeps one list
    [den, n0, n1, ...]: the integer coefficients of its numerator in the
    parameter over the positive integer den.  A product t/d adds into it
    at once, after _rescale if d is not den.  At the end _canon makes each
    monomial canonical with one integer gcd.  The first coefficient with a
    parameter-dependent denominator hands the whole sum to
    _dot_by_monomial.
    """
    pairs = tuple(pairs)
    sums: dict[tuple[int, int], list] = {}
    get = sums.get
    try:
        for p, q in pairs:
            qterms = q.terms
            for (i1, j1), c1 in p.terms:
                n1 = c1._n
                (d1,) = c1._d           # ValueError: depends on lambda
                x1 = n1[0] if len(n1) == 1 else None
                for (i2, j2), c2 in qterms:
                    n2 = c2._n
                    (d,) = c2._d
                    d *= d1
                    key = (i1 + i2, j1 + j2)
                    s = get(key)
                    if x1 is not None and len(n2) == 1:
                        t = x1 * n2[0]
                        if s is None:
                            sums[key] = [d, t]
                        elif s[0] == d:
                            s[1] += t
                        else:
                            t *= _rescale(s, d)
                            s[1] += t
                        continue
                    if s is None:
                        s = sums[key] = [d]
                        m = 1
                    else:
                        m = 1 if s[0] == d else _rescale(s, d)
                    top = len(n1) + len(n2)
                    if len(s) < top:
                        s += [0] * (top - len(s))
                    if x1 is not None:
                        x = x1 * m
                        for k, y in enumerate(n2, 1):
                            s[k] += x * y
                    elif len(n2) == 1:
                        y = n2[0] * m
                        for k, x in enumerate(n1, 1):
                            s[k] += x * y
                    else:
                        for k, x in enumerate(n1, 1):
                            if x:
                                x *= m
                                for j, y in enumerate(n2, k):
                                    s[j] += x * y
    except ValueError:
        return _dot_by_monomial(pairs)
    terms = []
    for key in sorted(sums):
        s = sums[key]
        while not s[-1]:
            s.pop()
        if len(s) > 1:
            terms.append((key, _canon(tuple(s[1:]), (s[0],))))
    return BivariatePoly._trusted(tuple(terms))


def _dot_by_monomial(pairs) -> BivariatePoly:
    """dot for coefficients with parameter-dependent denominators: term
    products grouped by monomial, one qlambda.dot per monomial, where the
    polynomial gcd runs."""
    groups: dict[tuple[int, int], list] = {}
    for p, q in pairs:
        for (i1, j1), c1 in p.terms:
            for (i2, j2), c2 in q.terms:
                key = (i1 + i2, j1 + j2)
                if key in groups:
                    groups[key].append((c1, c2))
                else:
                    groups[key] = [(c1, c2)]
    coeffs = ((key, scalar_dot(groups[key])) for key in sorted(groups))
    return BivariatePoly._trusted(tuple((k, c) for k, c in coeffs if c))


def _scalar_str(c: Scalar) -> str:
    def side(p):
        bits = []
        for k, v in enumerate(p):
            if v:
                bits.append(str(v) if k == 0
                            else (f"{v}*L^{k}" if k > 1 else f"{v}*L"))
        return " + ".join(bits)

    if c.den == (1,):
        return side(c.num)
    return f"({side(c.num)})/({side(c.den)})"


UNIT = BivariatePoly.monomial(0, 0)
MINUS_UNIT = BivariatePoly.monomial(0, 0, -1)
X = BivariatePoly.monomial(1, 0)
Y = BivariatePoly.monomial(0, 1)
