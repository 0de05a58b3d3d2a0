"""Tubular mutations on (rank, degree), slope words, and tube invariants.

The two elementary matrices generate a free semigroup action on positive
slopes with single generator 1; decomposing a slope into a word in that
action produces the change-of-tube matrix from slope infinity.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._record import Record
from .k0 import K0Class, euler_pairing
from .shift import mat_apply

R_MATRIX = ((1, 1), (0, 1))
S_MATRIX = ((1, 0), (1, 1))


class MutationWord(Record):
    """Word in the letters R, S, stored as a tuple of runs (letter, k) of
    k >= 1 equal letters, k an int; rendered left-to-right outermost-first,
    so the rightmost letter acts first."""

    __slots__ = ("runs",)

    def __init__(self, runs: tuple[tuple[str, int], ...]):
        try:
            runs = tuple((ch, k) for ch, k in runs)
        except (TypeError, ValueError):
            raise ValueError("runs must be (R or S, k >= 1)") from None
        if any(ch not in ("R", "S") or type(k) is not int or k < 1
               for ch, k in runs):
            raise ValueError("runs must be (R or S, k >= 1)")
        self._store(runs)

    def __str__(self) -> str:
        return "".join(ch * k for ch, k in self.runs)

    def matrix(self):
        """Product of the powers R^k = ((1, k), (0, 1)) and
        S^k = ((1, 0), (k, 1)), one per run, outermost first."""
        return _fold(self.runs)

    def apply_to_slope(self, q: Fraction) -> Fraction:
        r, d = mat_apply(self.matrix(), (q.denominator, q.numerator))
        return Fraction(d, r)


def _slope(q) -> tuple[int, int]:
    """q in lowest terms as (numerator, denominator > 0).  Only an int or a
    Fraction is taken: a float would be read as its binary fraction, and a
    bool as 0 or 1."""
    if type(q) is not int and type(q) is not Fraction:
        raise ValueError(f"slope must be an int or a Fraction, got {q!r}")
    return q.numerator, q.denominator


def _runs(a: int, b: int) -> list[tuple[str, int]]:
    """The runs of the word sending slope 1 to a/b > 0, by the reverse
    Euclidean walk: while a > b strip the k = (a - 1) // b outer S-steps
    that keep a/b >= 1, while a < b the k = (b - 1) // a outer R-steps,
    until a = b.  The k are the partial quotients of a/b, the last one
    less one, so each is a positive int."""
    runs = []
    while a != b:
        if a > b:
            k = (a - 1) // b
            runs.append(("S", k))
            a -= k * b
        else:
            k = (b - 1) // a
            runs.append(("R", k))
            b -= k * a
    return runs


def _fold(runs):
    """The product of R^k and S^k over the runs, outermost first, as its
    four entries: right-multiplying by R^k adds k times the first column
    to the second, by S^k k times the second to the first."""
    a, b, c, d = 1, 0, 0, 1
    for ch, k in runs:
        if ch == "R":
            b += k * a
            d += k * c
        else:
            a += k * b
            c += k * d
    return (a, b), (c, d)


def word_for_slope(q) -> MutationWord:
    """The unique word sending slope 1 to q > 0, built trusted from the
    runs of the reverse Euclidean walk on q.  q is an int or a Fraction."""
    n, den = _slope(q)
    if n <= 0:
        raise ValueError("slope must be positive")
    return MutationWord._trusted(tuple(_runs(n, den)))


def phi_from_infinity(q):
    """Unimodular matrix carrying the slope-infinity tube to slope q = n/den.

    For q > 0 this is the word matrix composed with the R-step from
    infinity.  For q <= 0, m = floor(-q) + 1 is the fewest S-steps making
    q + m positive, and S^-m = ((1, 0), (-m, 1)) is applied to the matrix
    for q + m = (n + m den)/den, still in lowest terms.  So the second
    column is (den, n).  q is an int or a Fraction.
    """
    n, den = _slope(q)
    m = 0 if n > 0 else -n // den + 1
    (a, b), (c, d) = _fold(_runs(n + m * den, den))
    # R adds the first column to the second; S^-m then takes m times the
    # first row from the second.
    b += a
    d += c
    return (a, b), (c - m * a, d - m * b)


class TubeInfo(Record):
    __slots__ = ("g", "rank_one_exists", "rank_one_length", "rank_two_length",
                 "finitely_many", "count_if_finite", "has_exceptional")


def tube_invariants(p: tuple[int, int]) -> TubeInfo:
    """Lengths and counts of indecomposables of type (r, d), from gcd parity."""
    r, d = p
    if (r, d) == (0, 0):
        raise ValueError("zero class")
    g = gcd(abs(r), abs(d))
    even = g % 2 == 0
    return TubeInfo(
        g=g,
        rank_one_exists=even,
        rank_one_length=g // 2 if even else None,
        rank_two_length=g,
        finitely_many=not even,
        count_if_finite=8 if not even else None,
        has_exceptional=g == 1,
    )


def mutate_pair_left(e: K0Class, f: K0Class) -> tuple[K0Class, K0Class]:
    """K0-level left mutation (E, F) -> (L_E F, E)."""
    return f - euler_pairing(e, f) * e, e


def mutate_pair_right(e: K0Class, f: K0Class) -> tuple[K0Class, K0Class]:
    """K0-level right mutation (E, F) -> (F, R_F E)."""
    return f, e - euler_pairing(e, f) * f
