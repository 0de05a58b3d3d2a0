"""Reduced Betti tables against an oracle built from ranks alone.

A factorization (A, B) of f is its minimal part plus trivial summands
(1, f) and (f, 1), and the constant entries count them.  Write A0(d) for
the degree-0 block of A, its constant entries between the rows and the
columns of twist d, and B0(e) for that of B.  A unit of A cancels a row
and a column of A of one twist d; a unit of B cancels a column of A of
twist e and a row of A of twist e - deg f.  So the reduced Betti table is

    beta_0,d = #{rows of A at twist d} - rank A0(d) - rank B0(d + deg f)
    beta_1,d = #{columns of A at twist d} - rank A0(d) - rank B0(d),

with no Schur complement and no pivot choice.  The ranks are taken over
Q(lambda) by sympy, so the oracle shares no arithmetic with reduce_mf,
whose pivots on lambda-dependent units run through qlambda.dot.  sympy
and hypothesis are test-only; the tests skip without them.
"""
from collections import Counter
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings                  # noqa: E402
from hypothesis import strategies as st                 # noqa: E402
from sympy.polys.matrices import DomainMatrix           # noqa: E402

import ellmf.poly                                       # noqa: E402
from ellmf.mf import (BRANCH_POINTS, F, KST, GradedMatrix,  # noqa: E402
                      MatrixFactorization, PointP1, betti_of_mf,
                      direct_sum, mf_cone, mf_linear, reduce_mf,
                      verify_mf)
from ellmf.poly import BivariatePoly                    # noqa: E402
from ellmf.qlambda import LAMBDA, ONE, Scalar           # noqa: E402
from ellmf.tables import BettiTable                     # noqa: E402
from mf_reference import find_scalar, reference_reduce  # noqa: E402

L = sympy.Symbol("L")
FIELD = sympy.QQ.frac_field(L)


def to_field(c: Scalar):
    """c as an element of sympy's Q(L), read from its public num/den."""
    def side(p):
        return sum((sympy.Rational(v.numerator, v.denominator) * L ** k
                    for k, v in enumerate(p)), sympy.Integer(0))
    return FIELD.from_sympy(side(c.num) / side(c.den))


def block_rank(g: GradedMatrix, twist: int) -> int:
    """The rank over Q(L) of g's constant block between its rows and its
    columns of the given twist."""
    rows = [i for i, u in enumerate(g.row_twists) if u == twist]
    cols = [j for j, v in enumerate(g.col_twists) if v == twist]
    if not rows or not cols:
        return 0
    block = []
    for i in rows:
        line = []
        for j in cols:
            terms = g.entries[i][j].terms
            assert all(k == (0, 0) for k, _ in terms)   # degree 0
            line.append(to_field(terms[0][1]) if terms else FIELD.zero)
        block.append(line)
    return DomainMatrix(block, (len(rows), len(cols)), FIELD).rank()


def oracle_betti(m: MatrixFactorization) -> BettiTable:
    """The Betti table of the minimal part of m, from block ranks."""
    A, B, deg = m.A, m.B, m.f.total_degree()
    cells = Counter()
    for d, count in Counter(A.row_twists).items():
        cells[(0, d)] = count - block_rank(A, d) - block_rank(B, d + deg)
    for d, count in Counter(A.col_twists).items():
        cells[(1, d)] = count - block_rank(A, d) - block_rank(B, d)
    return BettiTable({k: v for k, v in cells.items() if v})


def const(c) -> BivariatePoly:
    return BivariatePoly.monomial(0, 0, c)


def base_change(m: MatrixFactorization, side: int, l: int, k: int, c):
    """m under E = I + c*E_lk (l != k) or the scaling of summand l by the
    unit c (l == k), on the rows (side 0) or the columns (side 1) of A,
    undone by E^-1 on B.  c is a constant, or for l != k a homogeneous
    polynomial of degree twist_k - twist_l, so E is graded."""
    twists = m.A.col_twists if side else m.A.row_twists
    one, zero = const(1), BivariatePoly.zero()

    def matrix(c):
        c = c if isinstance(c, BivariatePoly) else const(c)
        return GradedMatrix(tuple(
            tuple(c if (r, s) == (l, k) else one if r == s else zero
                  for s in range(len(twists))) for r in range(len(twists))),
            twists, twists)

    e, inv = matrix(c), matrix(c.inverse() if l == k else -c)
    if side:
        return MatrixFactorization(m.A.compose(e), inv.compose(m.B), m.f)
    deg = m.f.total_degree()
    return MatrixFactorization(e.compose(m.A), m.B.compose(inv.twist(deg)),
                               m.f)


# kst, the four linear factorizations, cones at a branch point, at a
# rational point and at [L + 1 : 1], and direct sums of them.
CONES = [mf_cone(p) for p in (BRANCH_POINTS[3], PointP1(2, 3),
                              PointP1(LAMBDA + 1, ONE))]
BASES = ([KST] + [mf_linear(i) for i in range(1, 5)] + CONES
         + [direct_sum(KST, mf_linear(1)), direct_sum(mf_linear(2), CONES[1]),
            direct_sum(CONES[0], mf_linear(4)), direct_sum(CONES[1], KST)])
EXPECTED = [betti_of_mf(reduce_mf(m)) for m in BASES]


def test_oracle_matches_reduction_on_the_bases():
    for m, want in zip(BASES, EXPECTED):
        assert oracle_betti(m) == want


def test_lambda_unit_reaches_qlambda_dot(monkeypatch):
    """mf_linear(1) + (1, f), its rows scrambled so that A's only units are
    L - 1 and (L - 2)^2: reduce_mf divides by L - 1, sums the
    lambda-denominators in qlambda.dot and reduces A to -X/(L - 1)."""
    calls = []
    scalar_dot = ellmf.poly.scalar_dot

    def counting(pairs):
        calls.append(1)
        return scalar_dot(pairs)

    monkeypatch.setattr(ellmf.poly, "scalar_dot", counting)
    trivial = MatrixFactorization(GradedMatrix(((const(1),),), (0,), (0,)),
                                  GradedMatrix(((F,),), (0,), (4,)), F)
    m = direct_sum(mf_linear(1), trivial)
    m = base_change(base_change(m, 0, 0, 1, LAMBDA - 1), 0, 1, 0, LAMBDA - 3)
    assert verify_mf(m).ok
    red = reduce_mf(m)
    assert calls
    assert red.A.entries == ((BivariatePoly.monomial(
        1, 0, -(LAMBDA - 1).inverse()),),)
    assert verify_mf(MatrixFactorization(red.A, red.B, red.f)).ok
    assert find_scalar(red.A) is None and find_scalar(red.B) is None
    assert betti_of_mf(red) == oracle_betti(m) == betti_of_mf(mf_linear(1))
    assert betti_of_mf(m) == oracle_betti(m)


small = st.builds(Fraction, st.integers(-4, 4).filter(bool),
                  st.integers(1, 3))
lambda_constants = st.builds(lambda a, b: LAMBDA * b + a,
                             st.integers(-3, 3), small)
constants = st.one_of(small.map(Scalar.of), lambda_constants)


def homogeneous(draw, degree: int) -> BivariatePoly:
    """A homogeneous polynomial of the given degree > 0, each coefficient
    0 or a constant as above."""
    coeffs = draw(st.lists(st.one_of(st.none(), constants),
                           min_size=degree + 1, max_size=degree + 1))
    return BivariatePoly(((a, degree - a), c)
                         for a, c in enumerate(coeffs) if c is not None)


def scramble(draw, m: MatrixFactorization) -> MatrixFactorization:
    """m under 1 to 5 random graded base changes E = I + c*E_lk, or a
    scaling of summand l: c is a constant, rational or lambda-dependent,
    where twist_k = twist_l, and a homogeneous polynomial of degree
    twist_k - twist_l where that is positive.  The degree-0 blocks change
    by constant base changes alone, so they stay constant."""
    for _ in range(draw(st.integers(1, 5))):
        side = draw(st.integers(0, 1))
        twists = m.A.col_twists if side else m.A.row_twists
        l = draw(st.integers(0, len(twists) - 1))
        k = draw(st.sampled_from([j for j, t in enumerate(twists)
                                  if t >= twists[l]]))
        degree = twists[k] - twists[l]
        c = homogeneous(draw, degree) if degree else draw(constants)
        m = base_change(m, side, l, k, c)
    return m


@pytest.mark.parametrize("index", range(len(BASES)))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_reduced_betti_matches_rank_oracle_under_base_change(index, data):
    """The reduction of a scrambled base has the oracle's Betti table and
    equals, entries and twists, the step-by-step loop of mf_reference,
    and a fresh copy of it plans no pivot, as the empty plan it stores
    says; the table read off the plan of the scramble itself is the
    oracle's."""
    m = scramble(data.draw, BASES[index])
    assert verify_mf(m).ok
    red = reduce_mf(m)
    assert red == reference_reduce(m)
    assert find_scalar(red.A) is None and find_scalar(red.B) is None
    assert (MatrixFactorization(red.A, red.B, red.f)._pivots
            == red._pivots == ((), ()))
    assert betti_of_mf(red) == oracle_betti(m) == EXPECTED[index]
    assert betti_of_mf(m) == oracle_betti(m)
