"""Bivariate polynomials in X, Y with coefficients in the lambda field.

A polynomial is a sorted tuple of (exponents, nonzero Scalar) terms.  The
public constructor merges and sorts outside input; arithmetic results are
already canonical and skip it.  Every sum and product, `+`, `-` and `*`
included, is one sum of products, `dot`: term products are grouped by
monomial and each coefficient is one qlambda.dot, accumulated over one
common denominator and canonicalised once per entry.
"""
from __future__ import annotations

from ._record import Record
from .qlambda import Scalar
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
    def _trusted(cls, terms) -> "BivariatePoly":
        """For terms that are already sorted, merged, nonzero and canonical:
        skips the merge of __init__."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def from_dict(cls, d) -> "BivariatePoly":
        return cls(tuple(d.items()))

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls(())

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "BivariatePoly":
        return cls((((i, j), Scalar.of(c)),))

    def as_dict(self):
        return dict(self.terms)

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
        c = Scalar.of(c)
        if not c:
            return BivariatePoly.zero()
        return BivariatePoly._trusted(tuple((k, v * c)
                                            for k, v in self.terms))

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


def dot(pairs) -> BivariatePoly:
    """The sum of p*q over the (p, q) pairs: term products grouped by
    monomial, one qlambda.dot per monomial, the result built once.  A sum
    or difference is a dot against UNIT or MINUS_UNIT."""
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
        if not p:
            return "0"
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
