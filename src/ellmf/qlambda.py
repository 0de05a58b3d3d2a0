"""Exact rational functions in one parameter over the rationals.

A Scalar is N/D with N, D integer polynomials in the parameter (tuples of
ints, low degree first), held in the unique form where N and D are coprime
over the rationals, D has a positive leading coefficient and the integer
coefficients of N and D together have gcd 1.  Zero is () / (1,).

Arithmetic runs on Python ints, fraction-free in the style of Bareiss.
Every sum and product, `+`, `-` and `*` included, is one sum of products,
`dot`: the products accumulate into one integer coefficient list over one
common denominator, which _canon makes canonical once at the end.  The
polynomial gcd (a primitive pseudo-remainder sequence) runs only when that
denominator depends on the parameter.  specialize evaluates N and D in
integers alone.  The public num/den, as Fraction tuples with a monic den,
are derived from N/D on demand.

This is the coefficient field for all matrix work, so identities proved
here hold for every admissible parameter value at once.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Poly = tuple[Fraction, ...]        # coefficient of lambda^k at index k
ZPoly = tuple[int, ...]            # the same over the integers, trimmed

P_ONE: Poly = (Fraction(1),)


def p_trim(c) -> Poly:
    c = [Fraction(v) for v in c]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


# --- integer polynomials ----------------------------------------------------

def _z_mul(a: ZPoly, b: ZPoly) -> ZPoly:
    """Convolution; over the integers the leading product never vanishes."""
    if len(a) == 1:
        c = a[0]
        return tuple(c * v for v in b)
    if len(b) == 1:
        c = b[0]
        return tuple(c * v for v in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _z_primitive(a: ZPoly) -> ZPoly:
    """a divided by its content, leading coefficient made positive."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else tuple(v // c for v in a)


def _z_prem(a: ZPoly, b: ZPoly) -> ZPoly:
    """Pseudo-remainder of a by b, for len(a) >= len(b)."""
    r = list(a)
    lead, m = b[-1], len(b)
    while len(r) >= m:
        c, k = r[-1], len(r) - m
        r = [v * lead for v in r]
        for i, v in enumerate(b):
            r[k + i] -= c * v
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _z_gcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """Primitive gcd over the rationals of two nonzero polynomials, by the
    primitive pseudo-remainder sequence."""
    a, b = _z_primitive(a), _z_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _z_prem(a, b)
        if not r:
            return b
        a, b = b, _z_primitive(r)
    return (1,)


def _z_exact_div(a: ZPoly, g: ZPoly) -> ZPoly:
    """a / g for a primitive g dividing a over the rationals; by Gauss's
    lemma the quotient has integer coefficients."""
    r = list(a)
    lead, m = g[-1], len(g)
    q = [0] * (len(a) - m + 1)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + m - 1] // lead
        q[k] = c
        for i, v in enumerate(g):
            r[k + i] -= c * v
    return tuple(q)


def _z_homogeneous_at(a: ZPoly, p: int, q: int) -> int:
    """q^(len(a) - 1) * a(p/q), by Horner in p carrying the powers of q."""
    v, qk = 0, 1
    for c in reversed(a):
        v = v * p + c * qk
        qk *= q
    return v


# --- canonical forms --------------------------------------------------------

def _make(n: ZPoly, d: ZPoly) -> "Scalar":
    s = _new(Scalar)
    _set_n(s, n)
    _set_d(s, d)
    return s


def _canon(n: ZPoly, d: ZPoly) -> "Scalar":
    """The canonical form of N/D; the polynomial gcd runs only when D
    depends on the parameter."""
    if not n:
        return ZERO
    if len(d) > 1:
        g = _z_gcd(n, d)
        if len(g) > 1:
            n, d = _z_exact_div(n, g), _z_exact_div(d, g)
    c = gcd(*n, *d)
    if d[-1] < 0:
        c = -c
    if c != 1:
        n = tuple([v // c for v in n])
        d = tuple([v // c for v in d])
    return _make(n, d)


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


def dot(pairs) -> "Scalar":
    """The sum of a*b over the (a, b) pairs, canonicalised once.

    The products accumulate into one integer coefficient list over the
    common denominator den*lam, with den a positive integer and lam an
    integer polynomial, both 1 at the start.  A product with an integer
    constant denominator q grows den to lcm(den, q), and the list is
    rescaled by lcm/den (_rescale, which poly.dot shares); one with a parameter-dependent denominator q other
    than lam is multiplied into lam, and the list is rescaled by q.  Each
    product enters times its cofactor over den*lam.  A lone nonzero
    product against the constant +-1, as in x + 0, is +-(its other factor),
    already canonical, and is returned without the gcd.
    """
    pairs = [(a, b) for a, b in pairs if a._n and b._n]
    if len(pairs) == 1:
        a, b = pairs[0]
        if a == ONE or a == MINUS_ONE:
            a, b = b, a
        if b == ONE:
            return a
        if b == MINUS_ONE:
            return -a
    s = [1]                 # [den, n0, n1, ...]: the numerator over den
    lam = (1,)
    for a, b in pairs:
        n1, d1, n2, d2 = a._n, a._d, b._n, b._d
        if len(d1) == 1 and len(d2) == 1:
            q = d1[0] * d2[0]
            m = 1 if q == s[0] else _rescale(s, q)
            if len(lam) > 1:
                n1 = _z_mul(n1, lam)
        else:
            q = _z_mul(d1, d2)
            if q != lam:
                if len(s) > 1:
                    s[1:] = _z_mul(s[1:], q)
                n1 = _z_mul(n1, lam)
                lam = _z_mul(lam, q)
            m = s[0]
        top = len(n1) + len(n2)
        if len(s) < top:
            s += [0] * (top - len(s))
        for i, x in enumerate(n1, 1):
            if x:
                x *= m
                for j, y in enumerate(n2, i):
                    s[j] += x * y
    while len(s) > 1 and not s[-1]:
        s.pop()
    return _canon(tuple(s[1:]), tuple(s[0] * v for v in lam))


class Scalar:
    """N/D in the canonical form of the module docstring."""

    __slots__ = ("_n", "_d")

    def __init__(self, num, den: Poly = P_ONE):
        """From Fraction (or int) coefficient sequences, low degree first."""
        num, den = p_trim(num), p_trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        scale = lcm(*(v.denominator for v in num + den))
        s = _canon(tuple(v.numerator * (scale // v.denominator) for v in num),
                   tuple(v.numerator * (scale // v.denominator) for v in den))
        _set_n(self, s._n)
        _set_d(self, s._d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return _make, (self._n, self._d)

    @property
    def num(self) -> Poly:
        lead = self._d[-1]
        return tuple(Fraction(v, lead) for v in self._n)

    @property
    def den(self) -> Poly:
        lead = self._d[-1]
        return tuple(Fraction(v, lead) for v in self._d)

    def __repr__(self) -> str:
        return f"Scalar(num={self.num!r}, den={self.den!r})"

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._n, self._d))

    @classmethod
    def of(cls, v) -> "Scalar":
        if isinstance(v, Scalar):
            return v
        v = Fraction(v)
        return _make((v.numerator,), (v.denominator,)) if v else ZERO

    def __bool__(self) -> bool:
        return bool(self._n)

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.of(other)
        return dot(((self, ONE), (other, ONE)))

    __radd__ = __add__

    def __neg__(self):
        return _make(tuple(-v for v in self._n), self._d)

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.of(other)
        return dot(((self, ONE), (other, MINUS_ONE)))

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.of(other)
        return dot(((self, other),))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        n, d = self._n, self._d
        if not n:
            raise ZeroDivisionError("inverting zero")
        if n[-1] < 0:
            return _make(tuple(-v for v in d), tuple(-v for v in n))
        return _make(d, n)

    def __truediv__(self, other):
        return self * Scalar.of(other).inverse()

    def is_rational(self) -> bool:
        return len(self._n) <= 1 and len(self._d) == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar depends on the parameter")
        return Fraction(self._n[0], self._d[0]) if self._n else Fraction(0)

    def specialize(self, value: Fraction) -> "Scalar":
        if value.__class__ is not Fraction:
            value = Fraction(value)
        n, d = self._n, self._d
        if len(n) <= 1 and len(d) == 1:
            return self
        # Both sides times q^m, with value = p/q and m the larger degree.
        p, q = value.numerator, value.denominator
        nv, dv = _z_homogeneous_at(n, p, q), _z_homogeneous_at(d, p, q)
        if len(n) < len(d):
            nv *= q ** (len(d) - len(n))
        else:
            dv *= q ** (len(n) - len(d))
        if not dv:
            raise ZeroDivisionError(f"denominator vanishes at {value}")
        if not nv:
            return ZERO
        g = gcd(nv, dv)
        if dv < 0:
            g = -g
        return _make((nv // g,), (dv // g,))

    def lambda_coeffs(self) -> Poly:
        """Numerator coefficients; requires a polynomial (denominator 1)."""
        if len(self._d) > 1:
            raise ValueError("scalar is not polynomial in the parameter")
        return self.num


_new = object.__new__
_set_n = Scalar._n.__set__
_set_d = Scalar._d.__set__

ZERO = _make((), (1,))
ONE = _make((1,), (1,))
MINUS_ONE = _make((-1,), (1,))
LAMBDA = _make((0, 1), (1,))
