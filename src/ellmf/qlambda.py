"""Exact rational functions in one parameter over the rationals.

A Scalar is N/D with N, D integer polynomials in the parameter (tuples of
ints, low degree first), held in the unique form where N and D are coprime
over the rationals, D has a positive leading coefficient and the integer
coefficients of N and D together have gcd 1.  Zero is () / (1,).  Scalar
is a Record whose fields _n and _d hold N and D; its constructor takes
Fraction coefficient sequences and normalises them into that form, and
Scalar._trusted stores a pair already in it.  As the form is unique, ==
and hash are Record's, generated for the pair (_n, _d).

Arithmetic runs on Python ints, fraction-free in the style of Bareiss.
Every sum and product, `+`, `-` and `*` included, is one sum of products,
`dot`: one loop adds each product into one integer coefficient list over
one common denominator, multiplying both by each new denominator it
meets, and _canon makes the sum canonical once at the end.  The
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

from ._record import Record

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
    return Scalar._trusted(n, d)


def dot(pairs) -> "Scalar":
    """The sum of a*b over the (a, b) pairs, canonicalised once.

    One loop over the nonzero products n1*n2 / (d1*d2).  Each adds into
    one integer coefficient list over one common denominator den, an
    integer polynomial in the parameter that starts at 1.  A product over
    another denominator q multiplies the list and den by q, and enters
    times the old den.  _canon makes the sum canonical at the end.
    """
    acc: list[int] = []
    den: ZPoly = (1,)
    for a, b in pairs:
        n1, n2 = a._n, b._n
        if not n1 or not n2:
            continue
        q = _z_mul(a._d, b._d)
        if q != den:
            acc = list(_z_mul(acc, q))
            n1 = _z_mul(n1, den)
            den = _z_mul(den, q)
        top = len(n1) + len(n2) - 1
        if len(acc) < top:
            acc += [0] * (top - len(acc))
        for i, x in enumerate(n1):
            if x:
                for j, y in enumerate(n2, i):
                    acc[j] += x * y
    while acc and not acc[-1]:
        acc.pop()
    return _canon(tuple(acc), den)


class Scalar(Record):
    """N/D in the canonical form of the module docstring, in the fields
    _n and _d."""

    __slots__ = ("_n", "_d")

    def __init__(self, num, den: Poly = P_ONE):
        """From Fraction (or int) coefficient sequences, low degree first."""
        num, den = p_trim(num), p_trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        scale = lcm(*(v.denominator for v in num + den))
        s = _canon(tuple(v.numerator * (scale // v.denominator) for v in num),
                   tuple(v.numerator * (scale // v.denominator) for v in den))
        self._store(s._n, s._d)

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

    @classmethod
    def of(cls, v) -> "Scalar":
        if isinstance(v, Scalar):
            return v
        v = Fraction(v)
        return Scalar._trusted((v.numerator,), (v.denominator,)) if v else ZERO

    def __bool__(self) -> bool:
        return bool(self._n)

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.of(other)
        return dot(((self, ONE), (other, ONE)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar._trusted(tuple(-v for v in self._n), self._d)

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
            return Scalar._trusted(tuple(-v for v in d), tuple(-v for v in n))
        return Scalar._trusted(d, n)

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
        return Scalar._trusted((nv // g,), (dv // g,))

    def lambda_coeffs(self) -> Poly:
        """Numerator coefficients; requires a polynomial (denominator 1)."""
        if len(self._d) > 1:
            raise ValueError("scalar is not polynomial in the parameter")
        return self.num


ZERO = Scalar._trusted((), (1,))
ONE = Scalar._trusted((1,), (1,))
MINUS_ONE = Scalar._trusted((-1,), (1,))
LAMBDA = Scalar._trusted((0, 1), (1,))
