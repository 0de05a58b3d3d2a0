import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

import ellmf.mf
import ellmf.poly
import mf_reference

try:
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st
except ImportError:       # test-only dependency; the property test skips
    st = None

from ellmf.mf import (
    BRANCH_POINTS, F, FX, FY, KST, KST1, KST2, LINEAR, PHI_PSI, GradedMatrix,
    MatrixFactorization, PointP1, _chain_maps, _eliminate, _plan, _zeros,
    betti_of_mf, cone, direct_sum, is_minimal, lemma63_invariants, mf_cone,
    mf_linear, mf_Mp_reduced, reduce_mf, verify_mf,
)
from ellmf.poly import BivariatePoly, X, Y
from ellmf.qlambda import LAMBDA, ONE, Scalar
from ellmf.shift import shift_rd
from ellmf.tables import rd_from_betti, suspend_betti, translate_betti
from mf_reference import minor, reference_reduce, reference_steps


def sample_points(count, seed=71):
    rng = random.Random(seed)
    pts = list(BRANCH_POINTS)
    while len(pts) < count:
        a = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        pts.append(PointP1(Scalar.of(a), ONE))
    return pts


def partial(p, var):
    """d/dX (var 0) or d/dY (var 1) of p, term by term."""
    return BivariatePoly(
        ((i - (var == 0), j - (var == 1)), c * Scalar.of((i, j)[var]))
        for (i, j), c in p.terms if (i, j)[var])


def quarter_cofactors():
    """f_x/Y and f_y/X written out by hand."""
    lam, quarter = LAMBDA, Scalar.of(Fraction(1, 4))
    fx_over_y = ((X * X).scale(3) - (X * Y).scale(2 * (ONE + lam))
                 + (Y * Y).scale(lam)).scale(quarter)
    fy_over_x = (X * X - (X * Y).scale(2 * (ONE + lam))
                 + (Y * Y).scale(3 * lam)).scale(quarter)
    return fx_over_y, fy_over_x


def test_constants_identities():
    lam = LAMBDA
    assert F == X * Y * (X - Y) * (X - Y.scale(lam))
    assert LINEAR[0] * LINEAR[1] * LINEAR[2] * LINEAR[3] == F
    assert X * FX + Y * FY == F
    assert FX.scale(4) == partial(F, 0) and FY.scale(4) == partial(F, 1)
    fx_over_y, fy_over_x = quarter_cofactors()
    assert FX == Y * fx_over_y and FY == X * fy_over_x
    phi0, _, phiinf, _ = PHI_PSI
    assert phi0.entry(1, 1) == -fy_over_x
    assert phiinf.entry(1, 0) == fx_over_y
    assert F.is_homogeneous_of(4)


def test_branch_point_cones_verify():
    for p in BRANCH_POINTS:
        assert verify_mf(mf_cone(p)).ok


def test_mf_linear():
    for i in (1, 2, 3, 4):
        m = mf_linear(i)
        assert verify_mf(m).ok
        assert betti_of_mf(m).as_dict() == {(0, 0): 1, (1, 1): 1}
    for i in (1, 2, 3, 4):
        assert mf_linear(i).B.entry(0, 0) * LINEAR[i - 1] == F
    with pytest.raises(ValueError):
        mf_linear(5)
    # lemma63_invariants reaches mf_linear's check before BRANCH_POINTS.
    for i in (0, 5):
        with pytest.raises(ValueError, match="^index must be 1..4$"):
            lemma63_invariants(i)


@pytest.mark.parametrize("value", [0.5, True, 1.0, Fraction(1)])
def test_twist_and_mf_linear_refuse_non_integers(value):
    """A float, bool or Fraction twist or index is refused by name, not
    taken as an int: KST.twist(0.5) would have half-integer twists, and
    mf_linear(1.0) would fail later on a tuple index."""
    for g in (KST, KST.A):
        with pytest.raises(ValueError, match="^twist k must be an integer, "
                           f"got {re.escape(repr(value))}$"):
            g.twist(value)
    with pytest.raises(ValueError, match="^index i must be an integer, "
                       f"got {re.escape(repr(value))}$"):
        mf_linear(value)


def test_mf_kst():
    m = KST
    assert verify_mf(m).ok
    assert m.A.entry(1, 0).is_homogeneous_of(3)
    assert betti_of_mf(m).as_dict() == {(0, 0): 1, (0, -2): 1, (1, 1): 2}
    r, d = rd_from_betti(betti_of_mf(m))
    assert d == 0


def test_phi_psi_chain_maps():
    base = KST
    for phi, psi in (PHI_PSI[:2], PHI_PSI[2:]):
        lhs = base.A.twist(2).compose(psi)
        rhs = phi.compose(base.B.twist(1))
        for i in range(2):
            for j in range(2):
                assert (lhs.entry(i, j) + rhs.entry(i, j)).is_zero()
        lhs = base.B.twist(2).compose(phi.twist(4))
        rhs = psi.compose(base.A.twist(5))
        for i in range(2):
            for j in range(2):
                assert (lhs.entry(i, j) + rhs.entry(i, j)).is_zero()


def test_phi_psi_entries_pinned():
    fxy, fyx = quarter_cofactors()
    one, z = BivariatePoly.monomial(0, 0), BivariatePoly.zero()
    want = (((z, one), (z, -fyx)), ((-fyx, -one), (z, z)),
            ((one, z), (fxy, z)), ((z, z), (-fxy, one)))
    for got, entries in zip(PHI_PSI, want):
        assert got.entries == entries
    for phi, psi in (PHI_PSI[:2], PHI_PSI[2:]):
        assert (phi.row_twists, phi.col_twists) == ((2, 0), (2, 2))
        assert (psi.row_twists, psi.col_twists) == ((3, 3), (5, 3))


def lower_left(g):
    return tuple(row[:2] for row in g.entries[2:])


def negated(g):
    return tuple(tuple(-e for e in row) for row in g.entries)


def test_cone_glues_along_the_pencil():
    """The lower-left blocks of mf_cone([p0 : p1]) are
    -(p1*phi0 + p0*phiinf) and -(p1*psi0 + p0*psiinf)."""
    phi0, psi0, phiinf, psiinf = PHI_PSI
    pts = sample_points(12) + [PointP1(LAMBDA * a + b, ONE)
                               for a in (-2, 1, 3) for b in (-1, 0, 5)]
    for p in pts:
        cone = mf_cone(p)
        for got, m0, minf in ((cone.A, phi0, phiinf), (cone.B, psi0, psiinf)):
            want = tuple(tuple(-(a.scale(p.p1) + b.scale(p.p0))
                               for a, b in zip(r0, rinf))
                         for r0, rinf in zip(m0.entries, minf.entries))
            assert lower_left(got) == want
    # The ends of the pencil glue along one map each.
    cone = mf_cone(PointP1(Scalar.of(0), ONE))
    assert (lower_left(cone.A), lower_left(cone.B)) == (negated(phi0),
                                                        negated(psi0))
    cone = mf_cone(PointP1(ONE, Scalar.of(0)))
    assert (lower_left(cone.A), lower_left(cone.B)) == (negated(phiinf),
                                                        negated(psiinf))


def test_cone_verifies_symbolically():
    for p in sample_points(6):
        m = mf_cone(p)
        assert verify_mf(m).ok
        assert sorted(m.A.col_twists) == [2, 2, 3, 3]
        assert sorted(m.A.row_twists) == [-1, 0, 1, 2]


def test_reduced_form():
    p = PointP1(Scalar.of(0), ONE)
    m = mf_Mp_reduced(p)
    assert verify_mf(m).ok
    assert m.A.entry(0, 0) == X
    assert m.A.entry(0, 1) == Y * Y
    p = PointP1(ONE, Scalar.of(0))
    m = mf_Mp_reduced(p)
    assert m.A.entry(0, 0) == Y
    assert m.A.entry(0, 1) == X * X
    assert verify_mf(m).ok
    assert betti_of_mf(m).as_dict() == {(0, 0): 1, (0, 1): 1,
                                        (1, 2): 1, (1, 3): 1}


def test_point_canonical_form():
    p = PointP1(Scalar.of(2), Scalar.of(4))
    assert p.p0 == Scalar.of(Fraction(1, 2)) and p.p1 == ONE
    with pytest.raises(ValueError):
        PointP1(Scalar.of(0), Scalar.of(0))


def test_verify_catches_defects():
    m = KST
    a = [list(row) for row in m.A.entries]
    a[1][0] = -a[1][0]
    bad = MatrixFactorization(
        GradedMatrix(tuple(tuple(r) for r in a), m.A.row_twists,
                     m.A.col_twists), m.B, m.f)
    cert = verify_mf(bad)
    assert not cert.ok
    assert any(w in ("A*B", "B*A") for w, _, _, _ in cert.failures)


def test_verify_lists_perturbed_kst_defects():
    """A(0, 0) = X + Y instead of X: the exact defect of each product."""
    m = KST
    a = [list(row) for row in m.A.entries]
    a[0][0] = X + Y
    bad = MatrixFactorization(
        GradedMatrix(a, m.A.row_twists, m.A.col_twists), m.B, m.f)
    cert = verify_mf(bad)
    assert not cert.ok
    assert cert.failures == (("A*B", 0, 0, Y * FX), ("A*B", 0, 1, -(Y * Y)),
                             ("B*A", 0, 0, Y * FX), ("B*A", 1, 0, Y * FY))


def reference_certificate(m):
    """verify_mf's failures recomputed with both products always formed:
    twists, zero f and homogeneity first, then every entry of A*B and of
    B*A (against the source twisted by deg f) that differs from f*I."""
    A, B, f = m.A, m.B, m.f
    deg = f.total_degree()
    fails = []
    if A.col_twists != B.row_twists:
        fails.append(("twists", -1, -1, "A col twists != B row twists"))
    if deg is None:
        fails.append(("f", -1, -1, "f is zero"))
    elif B.col_twists != tuple(u + deg for u in A.row_twists):
        fails.append(("twists", -1, -1,
                      "B col twists != A row twists + deg f"))
    for label, g in (("A", A), ("B", B)):
        fails += [(f"{label}-homogeneity", i, j, g.entry(i, j))
                  for i, j in g.homogeneity_defects()]
    if fails:
        return tuple(fails)
    for label, prod in (("A*B", A.compose(B)),
                        ("B*A", B.compose(A.twist(deg)))):
        for i, row in enumerate(prod.entries):
            for j, e in enumerate(row):
                want = f if i == j else BivariatePoly.zero()
                if e != want:
                    fails.append((label, i, j, e - want))
    return tuple(fails)


def _rectangular():
    """A = (X Y), B = (f_x; f_y): A*B = f, but B*A is not f*I."""
    return MatrixFactorization(GradedMatrix(((X, Y),), (0,), (1, 1)),
                               GradedMatrix(((FX,), (FY,)), (1, 1), (4,)),
                               F)


def _perturbed(g, i, j, delta):
    """g with delta added to entry (i, j)."""
    rows = [list(row) for row in g.entries]
    rows[i][j] = rows[i][j] + delta
    return GradedMatrix(rows, g.row_twists, g.col_twists)


def _with_entry(m, side, i, j, delta):
    """m with delta added to entry (i, j) of A (side "A") or B."""
    g = _perturbed(getattr(m, side), i, j, delta)
    return (MatrixFactorization(g, m.B, m.f) if side == "A"
            else MatrixFactorization(m.A, g, m.f))


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_certificate_matches_two_product_reference():
    """verify_mf, which forms B*A only when A*B fails or A is not square,
    lists the same failures in the same order as the reference, on the
    base factorizations and on copies with one entry of A or B perturbed."""
    points = [PointP1(LAMBDA, ONE), PointP1(ONE, LAMBDA - 3),
              PointP1(LAMBDA * 2 + 1, ONE), PointP1(ONE, Scalar.of(0)),
              PointP1(Scalar.of(Fraction(-5, 3)), ONE),
              PointP1(Scalar.of(2), ONE)]
    cones = [mf_cone(p) for p in points]
    bases = ([KST, _rectangular()] + [mf_linear(i) for i in range(1, 5)]
             + cones + [reduce_mf(c) for c in cones]
             + [cones[-1].specialize(Fraction(7, 2))])
    for m in bases:
        fresh = MatrixFactorization(m.A, m.B, m.f)
        assert verify_mf(fresh).failures == reference_certificate(fresh)
    coefs = st.sampled_from((0, 1, -2, Fraction(1, 3), LAMBDA,
                             LAMBDA - 2, ONE / (LAMBDA + 1)))

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def check(data):
        m = data.draw(st.sampled_from(bases))
        side = data.draw(st.sampled_from("AB"))
        g = getattr(m, side)
        i = data.draw(st.integers(0, g.nrows - 1))
        j = data.draw(st.integers(0, g.ncols - 1))
        d = g.col_twists[j] - g.row_twists[i] + data.draw(
            st.sampled_from((0, 0, 0, 1)))
        x = data.draw(st.integers(0, max(d, 0)))
        delta = BivariatePoly.monomial(x, max(d - x, 0),
                                       Scalar.of(data.draw(coefs)))
        bad = _with_entry(m, side, i, j, delta)
        cert, ref = verify_mf(bad), reference_certificate(bad)
        assert cert.failures == ref
        assert cert.ok is (not ref)

    check()


def test_rectangular_fails_on_b_times_a():
    m = _rectangular()
    assert m.A.compose(m.B).entries == ((F,),)
    cert = verify_mf(m)
    assert not cert.ok
    assert cert.failures == reference_certificate(m) == (
        ("B*A", 0, 0, FX * X - F), ("B*A", 0, 1, FX * Y),
        ("B*A", 1, 0, FY * X), ("B*A", 1, 1, FY * Y - F))


def test_empty_inner_dimension_fails_verification():
    """A product over an inner dimension of 0 is a zero matrix of the
    outer shape, so a 1x0 and a 0x1 matrix never factor f."""
    zero = BivariatePoly.zero()
    row, col = GradedMatrix(((),), (0,), ()), GradedMatrix((), (), (4,))
    assert row.compose(col) == GradedMatrix(((zero,),), (0,), (4,))
    assert col.compose(row.twist(4)) == GradedMatrix((), (), ())
    m = MatrixFactorization(row, col, F)
    assert verify_mf(m).failures == (("A*B", 0, 0, -F),)
    flat = MatrixFactorization(GradedMatrix((), (), (0,)),
                               GradedMatrix(((),), (0,), ()), F)
    assert verify_mf(flat).failures == (("B*A", 0, 0, -F),)


def test_certificate_cached_per_object():
    m = mf_cone(PointP1(ONE, ONE))
    assert verify_mf(m) is verify_mf(m)
    assert verify_mf(MatrixFactorization(m.A, m.B, m.f)) is not verify_mf(m)


def test_reduce_rejects_perturbed_cone_fresh_and_verified():
    cone = mf_cone(PointP1(LAMBDA, ONE))
    for verified_first in (False, True):
        bad = _with_entry(cone, "B", 0, 1, BivariatePoly.monomial(0, 0))
        if verified_first:
            assert not verify_mf(bad).ok
        with pytest.raises(ValueError) as info:
            reduce_mf(bad)
        # The first failure, as `mf verify` prints it.
        label, i, j, defect = verify_mf(bad).failures[0]
        assert str(info.value) == (
            f"input fails verification: {label} ({i},{j}): {defect}")


def test_certificate_does_not_leak_through_specialize():
    """A defect (lambda - 2)*Y^2 fails for symbolic lambda and vanishes at
    lambda = 2; the specialized object gets a certificate of its own."""
    cone = mf_cone(PointP1(Scalar.of(3), ONE))
    assert cone.A.col_twists[0] - cone.A.row_twists[3] == 2
    bad = _with_entry(cone, "A", 3, 0,
                      BivariatePoly.monomial(0, 2, LAMBDA - 2))
    assert not verify_mf(bad).ok
    assert verify_mf(bad.specialize(Fraction(2))).ok
    assert not verify_mf(bad.specialize(Fraction(3))).ok


def _random_graded(rng, row_twists, col_twists):
    rows = []
    for u in row_twists:
        row = []
        for v in col_twists:
            d, e = v - u, {}
            for _ in range(3 if d >= 0 else 0):
                i = rng.randint(0, d)
                e[(i, d - i)] = Scalar(
                    [Fraction(rng.randint(-4, 4)) for _ in range(2)],
                    [Fraction(rng.randint(1, 3)), Fraction(rng.randint(0, 1))])
            row.append(BivariatePoly(e.items()))
        rows.append(row)
    return GradedMatrix(rows, row_twists, col_twists)


def test_compose_matches_naive_sum_of_products():
    rng = random.Random(73)
    for _ in range(25):
        u = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 3)))
        v = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
        w = tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 3)))
        a, b = _random_graded(rng, u, v), _random_graded(rng, v, w)
        prod = a.compose(b)
        assert (prod.row_twists, prod.col_twists) == (u, w)
        for i in range(len(u)):
            for j in range(len(w)):
                naive = BivariatePoly(tuple(
                    ((i1 + i2, j1 + j2), c1 * c2)
                    for k in range(len(v))
                    for (i1, j1), c1 in a.entry(i, k).terms
                    for (i2, j2), c2 in b.entry(k, j).terms))
                e = prod.entry(i, j)
                assert e == naive and e.terms == naive.terms
                assert hash(e) == hash(naive)
                assert all(c for _, c in e.terms)
    # Every term of an off-diagonal entry of A*B cancels.
    m = KST
    prod = m.A.compose(m.B)
    assert prod.entries == ((m.f, BivariatePoly.zero()),
                            (BivariatePoly.zero(), m.f))
    assert prod.entry(0, 1).terms == prod.entry(1, 0).terms == ()


def test_schur_complement_matches_full_update_then_minor():
    """One Schur step of _eliminate against the reference: update every
    cell by (column j) * u^-1 * (row i), then take the (i, j) minor."""
    rng = random.Random(79)
    pivots = (("rational", Scalar.of(Fraction(-3, 2))),
              ("rational", Scalar.of(5)), ("lambda", LAMBDA),
              ("lambda", LAMBDA * 2 - 3), ("lambda", ONE / (LAMBDA + 1)))
    seen = set()
    for _ in range(40):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        i = rng.choice((0, nr - 1, rng.randrange(nr)))
        j = rng.choice((0, nc - 1, rng.randrange(nc)))
        u = [rng.randint(-2, 2) for _ in range(nr)]
        v = [rng.randint(0, 3) for _ in range(nc)]
        v[j] = u[i]
        rows = [list(r) for r in _random_graded(rng, u, v).entries]
        kind, pivot = rng.choice(pivots)
        rows[i][j] = BivariatePoly.monomial(0, 0, pivot)
        for r in range(nr):
            if r != i and rng.random() < 0.4:
                rows[r][j] = BivariatePoly.zero()
        g = GradedMatrix(rows, u, v)
        inv = pivot.inverse()
        full = GradedMatrix(tuple(
            tuple(e if r == i else e - rows[r][j] * rows[i][c].scale(inv)
                  for c, e in enumerate(row))
            for r, row in enumerate(rows)), u, v)
        got = _eliminate(g, [(i, j)], ())
        assert got == minor(full, i, j)
        assert not got.homogeneity_defects()
        seen.add(kind)
        seen.add(("row", i == 0, i == nr - 1))
        seen.add(("col", j == 0, j == nc - 1))
        seen.update("zero" if rows[r][j].is_zero() else "nonzero"
                    for r in range(nr) if r != i)
    assert {"lambda", "rational", "zero", "nonzero"} <= seen
    assert {("row", True, False), ("row", False, True),
            ("col", True, False), ("col", False, True)} <= seen


def test_verify_catches_twist_and_homogeneity():
    m = mf_linear(1)
    bad = MatrixFactorization(m.A, GradedMatrix(m.B.entries, (1,), (5,)),
                              m.f)
    assert not verify_mf(bad).ok
    bad = MatrixFactorization(
        GradedMatrix(((X + X * X,),), (0,), (1,)), m.B, m.f)
    cert = verify_mf(bad)
    assert any(w == "A-homogeneity" for w, _, _, _ in cert.failures)


def test_reduce_cone_matches_reduced():
    for p in sample_points(20):
        red = reduce_mf(mf_cone(p))
        assert verify_mf(red).ok
        assert sorted(red.A.row_twists) == [0, 1]
        assert sorted(red.A.col_twists) == [2, 3]
        assert betti_of_mf(red) == betti_of_mf(mf_Mp_reduced(p))


def test_reduce_symbolic_point():
    p = PointP1(LAMBDA, ONE)
    red = reduce_mf(mf_cone(p))
    assert verify_mf(red).ok
    assert betti_of_mf(red) == betti_of_mf(mf_Mp_reduced(p))


def test_pivot_tiers_and_row_major_tie():
    """The pivot is the first unit equal to +-1, else the first rational
    constant, else the first unit, each tier in row-major order.  Each
    matrix is graded so that its constants sit at degree-0 cells, the only
    cells _plan reads, and the reference loop, which scans every cell,
    cancels the same pivots."""
    z = BivariatePoly.zero()

    def c(v):
        return BivariatePoly.monomial(0, 0, v)

    def plan(rows, row_twists, col_twists):
        g = GradedMatrix(rows, row_twists, col_twists)
        assert not g.homogeneity_defects()
        pivots = _plan(g, ())
        partner = _zeros(g.col_twists, g.row_twists)
        assert pivots == reference_steps(MatrixFactorization(g, partner,
                                                             F))[1]
        return pivots

    def pivot(rows, row_twists, col_twists):
        pivots = plan(rows, row_twists, col_twists)
        return pivots[0] if pivots else None

    lam_unit = c(LAMBDA + 2)
    assert pivot(((lam_unit, c(3), X), (c(-1), c(1), z)),
                 (0, 0), (0, 0, 1)) == (1, 0)
    assert pivot(((X, c(-1)), (c(1), z)), (0, 1), (1, 0)) == (0, 1)
    assert pivot(((lam_unit, X), (c(Fraction(1, 2)), Y), (c(3), z)),
                 (0, 0, 0), (0, 1)) == (1, 0)
    assert pivot(((X, lam_unit), (c(LAMBDA), z)), (0, 1), (1, 0)) == (0, 1)
    assert pivot(((X, z), (Y, z)), (0, 0), (1, 0)) is None
    # The tier is read after each update.  (1, 2) holds 7 before the first
    # step and 1 after it, so it beats the rational -8 at (1, 1); and a
    # cell that the update brings to 0, here (1, 1), is no unit.
    assert plan(((c(1), c(5), c(2)), (c(3), c(7), c(7))),
                (0, 0), (0, 0, 0)) == [(0, 0), (1, 2)]
    assert plan(((c(1), c(2), c(5)), (c(3), c(6), c(7))),
                (0, 0), (0, 0, 0)) == [(0, 0), (1, 2)]


def _lambda_denominators(m):
    return [c for g in (m.A, m.B) for row in g.entries for e in row
            for _, c in e.terms if len(c.den) > 1]


def test_reduced_cone_is_division_free_and_equals_mp_reduced():
    """Every cone has a +-1 entry in A and in B, so reduce_mf never divides
    by a lambda-dependent pivot: at [p0 : 1] with p0 = a*lambda + b
    (a, b in -3..3) or p0 rational the result has no lambda-dependent
    denominator, and it is mf_Mp_reduced(p) entry for entry.  At p0 = +-1
    the row-major tie takes -p0 at (2, 0) instead; both outcomes still
    verify with the same Betti table (test_reduce_cone_matches_reduced)."""
    p0s = [LAMBDA * a + b for a in range(-3, 4) for b in range(-3, 4)]
    p0s += [Scalar.of(Fraction(q)) for q in ("2/3", "-5/7", "7", "-4")]
    for p0 in p0s:
        if p0 in (ONE, -ONE):
            continue
        p = PointP1(p0, ONE)
        red, want = reduce_mf(mf_cone(p)), mf_Mp_reduced(p)
        assert not _lambda_denominators(red)
        assert (red.A, red.B) == (want.A, want.B)


def test_reduce_then_specialize_where_p0_has_no_pole():
    """The reduced cone at [lambda - 2 : 1] specializes at lambda = 2.  The
    case that remains is a point whose p0 itself has a pole there."""
    red = reduce_mf(mf_cone(PointP1(LAMBDA - 2, ONE)))
    spec = red.specialize(Fraction(2))
    assert verify_mf(spec).ok
    assert betti_of_mf(spec) == betti_of_mf(red)
    with pytest.raises(ZeroDivisionError):
        reduce_mf(mf_cone(PointP1(ONE, LAMBDA - 2))).specialize(Fraction(2))


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_reduce_and_specialize_give_the_same_betti_table():
    """At [a*lambda + b : c*lambda + d] and a rational lambda where p0 has
    no pole, reducing then specializing and specializing then reducing
    both verify, and the two agree on the Betti table (their entries may
    differ by a base change, since the pivots can differ)."""
    small = st.integers(-3, 3)
    lams = st.fractions(-5, 5, max_denominator=5).filter(
        lambda v: v not in (0, 1))

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(small, small, small, small, lams)
    def check(a, b, c, d, lam):
        assume(a or b or c or d)
        assume(c * lam + d != 0 or c == d == 0)
        m = mf_cone(PointP1(LAMBDA * a + b, LAMBDA * c + d))
        one, two = reduce_mf(m).specialize(lam), reduce_mf(m.specialize(lam))
        assert verify_mf(one).ok and verify_mf(two).ok
        assert betti_of_mf(one) == betti_of_mf(two)

    check()


def test_reduce_is_identity_on_minimal():
    m = mf_Mp_reduced(PointP1(ONE, ONE))
    red = reduce_mf(m)
    assert red.A.entries == m.A.entries and red.B.entries == m.B.entries


def test_reduce_strips_trivial_summand():
    one = BivariatePoly.monomial(0, 0)
    z = BivariatePoly.zero()
    base = mf_linear(1)
    a = GradedMatrix(((base.A.entry(0, 0), z), (z, one)), (0, 0), (1, 0))
    b = GradedMatrix(((base.B.entry(0, 0), z), (z, F)), (1, 0), (4, 4))
    m = MatrixFactorization(a, b, F)
    assert verify_mf(m).ok
    red = reduce_mf(m)
    assert red.A.entries == base.A.entries
    assert red.A.row_twists == (0,) and red.A.col_twists == (1,)


def test_degree_read_from_f():
    """verify_mf and reduce_mf take deg f from f, not from the quartic."""
    f = X * X
    m = MatrixFactorization(GradedMatrix(((X,),), (0,), (1,)),
                            GradedMatrix(((X,),), (1,), (2,)), f)
    assert verify_mf(m).ok
    one, z = BivariatePoly.monomial(0, 0), BivariatePoly.zero()
    padded = MatrixFactorization(
        GradedMatrix(((X, z), (z, one)), (0, 0), (1, 0)),
        GradedMatrix(((X, z), (z, f)), (1, 0), (2, 2)), f)
    red = reduce_mf(padded)
    assert (red.A, red.B) == (m.A, m.B)


def _elementary(twists, l, k, c):
    """I + c*E_lk on summands with the given twists."""
    n = len(twists)
    return GradedMatrix(tuple(
        tuple(BivariatePoly.monomial(0, 0, 1 if r == s else c)
              if r == s or (r, s) == (l, k) else BivariatePoly.zero()
              for s in range(n)) for r in range(n)), twists, twists)


def _mix(m, side, l, k, c):
    """Base change by E = I + c*E_lk on the rows (side 0) or columns
    (side 1) of A, undone by E^-1 on B."""
    if side == 0:
        e, inv = (_elementary(m.A.row_twists, l, k, s) for s in (c, -c))
        return MatrixFactorization(
            e.compose(m.A), m.B.compose(inv.twist(m.f.total_degree())), m.f)
    e, inv = (_elementary(m.A.col_twists, l, k, s) for s in (c, -c))
    return MatrixFactorization(m.A.compose(e), inv.compose(m.B), m.f)


def _units_hidden_by_base_change():
    """(base, m): trivial summands (1, f) and (f, 1) mixed into the minimal
    base by constant base changes."""
    base = mf_Mp_reduced(PointP1(LAMBDA, ONE))
    one, f = BivariatePoly.monomial(0, 0), base.f
    m = base
    for t in (1, 0):
        m = direct_sum(m, MatrixFactorization(
            GradedMatrix(((one,),), (t,), (t,)),
            GradedMatrix(((f,),), (t,), (t + 4,)), f))
    for t in (-2, -1):
        m = direct_sum(m, MatrixFactorization(
            GradedMatrix(((f,),), (t,), (t + 4,)),
            GradedMatrix(((one,),), (t + 4,), (t + 4,)), f))
    for side, l, k, c in ((0, 0, 2, 2), (0, 1, 3, 1),
                          (1, 0, 4, 1), (1, 1, 5, -3)):
        m = _mix(m, side, l, k, c)
    return base, m


def test_reduce_units_hidden_by_base_change():
    """Trivial summands (1, f) and (f, 1) mixed into a minimal factorization
    by constant base changes put units in the rows of the minimal summand,
    off the direct-sum blocks; A and B each need two pivots."""
    base, m = _units_hidden_by_base_change()
    assert m.A.row_twists == (1, 0, 1, 0, -2, -1)
    assert m.A.col_twists == (2, 3, 1, 0, 2, 3)
    assert verify_mf(m).ok
    assert m.A.entry(0, 2).is_scalar() and m.A.entry(1, 3).is_scalar()
    assert m.B.entry(0, 4).is_scalar() and m.B.entry(1, 5).is_scalar()
    red = reduce_mf(m)
    assert verify_mf(red).ok and is_minimal(red)
    assert betti_of_mf(red) == betti_of_mf(base)
    for g, h in ((red.A, base.A), (red.B, base.B)):
        assert sorted(g.row_twists) == sorted(h.row_twists)
        assert sorted(g.col_twists) == sorted(h.col_twists)


def _lambda_unit_scrambled():
    """The scrambled input of tests/golden/cli_matrix.json: mf_linear(1) +
    (1, f) under P = [[L-2, L-1], [L-3, L-2]] of determinant 1, whose only
    units are L - 1 and L - 2, so its pivots are of the third tier."""
    def const(a, b):
        return BivariatePoly.monomial(0, 0, LAMBDA * b + a)

    m = direct_sum(mf_linear(1), MatrixFactorization(
        GradedMatrix(((const(1, 0),),), (0,), (0,)),
        GradedMatrix(((F,),), (0,), (4,)), F))
    p = GradedMatrix(((const(-2, 1), const(-1, 1)),
                      (const(-3, 1), const(-2, 1))), (0, 0), (0, 0))
    p_inv = GradedMatrix(((const(-2, 1), const(1, -1)),
                          (const(3, -1), const(-2, 1))), (4, 4), (4, 4))
    return MatrixFactorization(p.compose(m.A), m.B.compose(p_inv), F)


def _reduction_sources():
    """Cones at sample_points (the branch points [0 : 1], [1 : 0] and
    [1 : 1] among them) and at [-1 : 1], where with [1 : 1] the row-major
    tie takes -p0 at (2, 0); each specialized at three values of lambda;
    the twists and syzygies of all of these; direct sums of two and three
    objects, some scrambled by base changes; and the lambda-unit scrambled
    input."""
    cones = [mf_cone(p) for p in sample_points(12) + [PointP1(-1, 1)]]
    plain = cones + [c.specialize(lam) for c in cones
                     for lam in (2, Fraction(-1, 3), Fraction(5, 2))]
    ops = plain + [op(m) for m in plain
                   for op in (lambda m: m.twist(1), lambda m: m.twist(-2),
                              MatrixFactorization.syzygy)]
    sums = [direct_sum(cones[4], cones[5]),
            direct_sum(direct_sum(cones[0], KST), cones[12]),
            direct_sum(direct_sum(cones[1], cones[2]), cones[3]),
            direct_sum(direct_sum(mf_linear(2), cones[6]),
                       reduce_mf(cones[7]).syzygy()),
            _units_hidden_by_base_change()[1]]
    sums += _differential_sources()[-3:]
    return ops + sums + [_lambda_unit_scrambled()]


def test_reduce_matches_step_by_step_reference():
    """reduce_mf equals the step-by-step loop of mf_reference, entries and
    twists, and its plan lists the pivots that loop cancels, in order."""
    sources = _reduction_sources()
    steps = set()
    for m in sources:
        assert verify_mf(m).ok
        red = reduce_mf(m)
        want, a_pivots, b_pivots = reference_steps(m)
        assert red == want
        assert red.A.entries == want.A.entries
        assert (red.A.row_twists, red.A.col_twists, red.B.entries) == (
            want.A.row_twists, want.A.col_twists, want.B.entries)
        plan = _plan(m.A, ())
        assert (plan, _plan(m.B, plan)) == (a_pivots, b_pivots)
        steps.add((len(a_pivots), len(b_pivots)))
    # Several A- and B-phase steps occur, the tie at p0 = +-1 takes (2, 0),
    # and the last input's pivot is a lambda-dependent unit.
    assert {(1, 1), (2, 2), (3, 3)} <= steps
    for p0 in (1, -1):
        assert _plan(mf_cone(PointP1(p0, 1)).A, ()) == [(2, 0)]
    scrambled = sources[-1]
    i, j = _plan(scrambled.A, ())[0]
    assert not scrambled.A.entry(i, j).terms[0][1].is_rational()


def test_reduction_forms_only_surviving_cells(monkeypatch):
    """reduce_mf forms 8 polynomials for the cone at [2 lambda + 3 : 1] and
    4 for those at [0 : 1] and [1 : 0], where the step-by-step loop formed
    13 and 11: A loses up front the row and the column that B's pivot
    deletes, and a cell is formed only where its update is nonzero.  Each
    polynomial formed is an entry of the result or is read by a later
    sum."""
    formed, read = [], []
    dot = ellmf.poly.dot

    def counting(pairs):
        pairs = tuple(pairs)
        read.extend(p for pair in pairs for p in pair)
        formed.append(dot(pairs))
        return formed[-1]

    for module in (ellmf.poly, ellmf.mf, mf_reference):
        monkeypatch.setattr(module, "dot", counting)
    for p, want, before in ((PointP1(LAMBDA * 2 + 3, ONE), 8, 13),
                            (PointP1(0, 1), 4, 11), (PointP1(1, 0), 4, 11)):
        m = mf_cone(p)
        assert verify_mf(m).ok
        formed.clear()
        read.clear()
        red = reduce_mf(m)
        assert len(formed) == want
        entries = {id(e) for g in (red.A, red.B) for row in g.entries
                   for e in row}
        read_ids = {id(e) for e in read}
        assert all(id(e) in entries or id(e) in read_ids for e in formed)
        formed.clear()
        assert reference_reduce(m) == red and len(formed) == before


def test_verify_reports_zero_f():
    m = mf_linear(1)
    zero_f = MatrixFactorization(m.A, m.B, BivariatePoly.zero())
    cert = verify_mf(zero_f)
    assert not cert.ok
    assert ("f", -1, -1, "f is zero") in cert.failures
    with pytest.raises(ValueError):
        reduce_mf(zero_f)
    with pytest.raises(ValueError, match="f is zero"):
        zero_f.syzygy()


def test_betti_requires_minimal():
    with pytest.raises(ValueError):
        betti_of_mf(mf_cone(PointP1(ONE, ONE)))


def test_reduce_rejects_broken_input():
    m = KST
    bad = MatrixFactorization(m.A, m.A.twist(1), m.f)
    with pytest.raises(ValueError):
        reduce_mf(bad)


def test_specialization_commutes():
    lam = Fraction(2)
    for build in (lambda: KST, lambda: mf_linear(3),
                  lambda: mf_cone(PointP1(ONE, ONE)),
                  lambda: mf_Mp_reduced(PointP1(Scalar.of(3), ONE))):
        m = build()
        spec = m.specialize(lam)
        assert verify_mf(spec).ok
        assert spec.f == m.f.specialize(lam)


def test_lemma63_all_branches():
    for i in (1, 2, 3, 4):
        # The pieces as they were built by hand from the fields.
        m = mf_linear(i)
        assert m.twist(1) == MatrixFactorization(m.A.twist(1), m.B.twist(1),
                                                 m.f)
        assert m.syzygy().twist(-1) == MatrixFactorization(
            m.B.twist(-1), m.A.twist(3), m.f)
        rep = lemma63_invariants(i)
        assert rep.mp_rd == (0, 2)
        assert rep.sub_rd == (0, 1)
        assert rep.quot_rd == (0, 1)
        assert rep.additive


# --- operations on factorizations ------------------------------------------

CONE_POINTS = (sample_points(12)
               + [PointP1(LAMBDA * a + b, ONE)
                  for a in range(-3, 4) for b in range(-3, 4)])


def fresh_certificate(m):
    """The certificate of a copy of m built from its fields alone."""
    return verify_mf(MatrixFactorization(m.A, m.B, m.f))


def test_cone_certificate_from_parts_equals_full():
    """At the branch points, rational points and every [a*lambda + b : 1]
    with a, b in -3..3, and on direct sums, the certificate read from the
    parts is the one the full check gives."""
    for p in CONE_POINTS:
        m = mf_cone(p)
        assert verify_mf(m) == fresh_certificate(m)
        assert verify_mf(m).ok
    red = reduce_mf(mf_cone(PointP1(Scalar.of(2), ONE)))
    for a, b in ((KST, mf_linear(1)), (red, mf_linear(3).twist(2)),
                 (KST1, mf_cone(PointP1(LAMBDA, ONE)))):
        m = direct_sum(a, b)
        assert verify_mf(m) == fresh_certificate(m)
        assert verify_mf(m).ok


def _fallback_cases():
    phi, psi = _chain_maps(-Scalar.of(3), -ONE)
    bad_kst = MatrixFactorization(_perturbed(KST1.A, 0, 0, Y), KST1.B,
                                  KST1.f)
    return {
        # Homogeneous of the forced degree, so only the block is wrong.
        "phi-entry": (KST1, KST2, _perturbed(phi, 1, 0, X * Y), psi),
        # Not homogeneous: fails before any product.
        "phi-degree": (KST1, KST2, _perturbed(phi, 0, 0, X), psi),
        # The psi of the cone at [lambda : 1].
        "swapped-psi": (KST1, KST2, phi, _chain_maps(-LAMBDA, -ONE)[1]),
        "non-factorization-M": (bad_kst, KST2, phi, psi),
        # Parts that cannot certify the cone, each with zero maps.
        "different-f": _with_zero_maps(KST1, KST2.specialize(2)),
        "non-square-M": _with_zero_maps(_rectangular(), mf_linear(1)),
    }


def _with_zero_maps(M, N):
    return (M, N, _zeros(N.A.row_twists, M.A.col_twists),
            _zeros(N.B.row_twists, M.B.col_twists))


@pytest.mark.parametrize("case", sorted(_fallback_cases()))
def test_cone_fallback_lists_the_full_failures(case):
    m = cone(*_fallback_cases()[case])
    cert = verify_mf(m)
    assert not cert.ok and cert.failures
    assert cert == fresh_certificate(m)
    assert cert.failures == reference_certificate(m)


def test_verified_cone_runs_no_full_compose(monkeypatch):
    """With the parts' certificates warm a cone forms no 4x4 product, and
    neither does its specialization, which holds the cone's certificate; a
    pickled or copied cone carries no stored certificate and is checked in
    full."""
    shapes = []
    compose = GradedMatrix.compose

    def counting(self, other):
        shapes.append((self.nrows, self.ncols, other.ncols))
        return compose(self, other)

    assert verify_mf(KST1).ok and verify_mf(KST2).ok
    monkeypatch.setattr(GradedMatrix, "compose", counting)
    for p in CONE_POINTS:
        assert verify_mf(mf_cone(p)).ok
    assert verify_mf(direct_sum(KST1, KST2)).ok
    assert (4, 4, 4) not in shapes
    m = mf_cone(PointP1(LAMBDA * 2 - 1, ONE))
    shapes.clear()
    assert verify_mf(m.specialize(Fraction(5, 2))).ok
    assert (4, 4, 4) not in shapes
    for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m),
                   copy.copy(m)):
        shapes.clear()
        assert verify_mf(copied).ok
        assert shapes == [(4, 4, 4)]
    assert pickle.loads(pickle.dumps(m)) == m


def test_constructions_store_the_certificate_and_no_link():
    """A cone, direct sum, specialization, twist or syzygy of passing
    parts holds its ok certificate from the start and nothing else, so
    no part or source is kept alive; a construction of a failing part
    holds nothing until verify_mf runs its full check."""
    c = mf_cone(PointP1(LAMBDA, ONE))
    for m in (c, direct_sum(KST, mf_linear(1)), c.specialize(Fraction(5, 2)),
              c.twist(-1), c.syzygy(), mf_linear(2).syzygy().twist(1)):
        assert vars(m).keys() == {"_certificate"}
        assert verify_mf(m).ok and vars(m).keys() == {"_certificate"}
    assert verify_mf(c.twist(1)) is verify_mf(c)
    bad = _with_entry(KST, "A", 0, 0, Y)
    for m in (bad.specialize(2), bad.twist(1), bad.syzygy(),
              direct_sum(bad, KST)):
        assert vars(m) == {}
        assert not verify_mf(m).ok and vars(m).keys() == {"_certificate"}


def _constructions():
    """(name, op) for specialize, twist and syzygy, each alone and in
    chains, one of them verified halfway."""
    ops = [(f"specialize({v})", lambda m, v=v: m.specialize(v))
           for v in (0, 1, Fraction(5, 2), Fraction(-7, 3))]
    ops += [(f"twist({k})", lambda m, k=k: m.twist(k)) for k in range(-2, 3)]
    ops.append(("syzygy", MatrixFactorization.syzygy))

    def chain(*steps):
        def run(m):
            for step in steps:
                m = step(m)
            return m
        return run

    def verified(m):
        verify_mf(m)
        return m

    spec, syz = (lambda m: m.specialize(Fraction(5, 2)),
                 MatrixFactorization.syzygy)
    ops += [
        ("syzygy.twist(1).specialize", chain(syz, lambda m: m.twist(1),
                                             spec)),
        ("specialize.syzygy.syzygy", chain(spec, syz, syz)),
        ("twist(-2).specialize(1).verify.specialize.syzygy",
         chain(lambda m: m.twist(-2), lambda m: m.specialize(1), verified,
               spec, syz)),
    ]
    return ops


def _differential_sources():
    """kst, the linear pieces, the 1x2 _rectangular() (the one that fails,
    on B*A), the cones at CONE_POINTS and their reductions, and direct
    sums scrambled by base changes."""
    cones = [mf_cone(p) for p in CONE_POINTS]
    sums = [_mix(_mix(direct_sum(KST, mf_linear(1)), 0, 0, 2, 2),
                 1, 2, 0, LAMBDA - 1),
            _mix(direct_sum(mf_linear(4), reduce_mf(cones[5])), 0, 2, 0, 3),
            _mix(direct_sum(KST1, cones[-1]), 0, 3, 1, Fraction(1, 2))]
    return ([KST, _rectangular()] + [mf_linear(i) for i in range(1, 5)]
            + cones + [reduce_mf(c) for c in cones] + sums)


def test_derived_certificate_equals_full(monkeypatch):
    """For every construction, the certificate read from a passing source
    forms no product and equals a fresh copy's full certificate; on
    failing sources the full check runs and lists the same failures."""
    shapes = []
    compose = GradedMatrix.compose

    def counting(self, other):
        shapes.append((self.nrows, self.ncols, other.ncols))
        return compose(self, other)

    monkeypatch.setattr(GradedMatrix, "compose", counting)
    sources = _differential_sources()
    bad = [_with_entry(KST, "A", 0, 0, Y), _with_entry(KST, "B", 1, 0, X),
           _with_entry(sources[10], "B", 0, 1, BivariatePoly.monomial(0, 0)),
           _with_entry(sources[20], "A", 3, 0,
                       BivariatePoly.monomial(0, 2, LAMBDA - 2)),
           _with_entry(mf_linear(2), "A", 0, 0, X * X)]
    for source in sources + bad:
        ok = verify_mf(source).ok
        for name, op in _constructions():
            m = op(source)
            shapes.clear()
            cert = verify_mf(m)
            if ok:
                assert shapes == [], name
            assert cert == fresh_certificate(m), name
    assert sum(verify_mf(m).ok for m in sources) == len(sources) - 1
    assert not any(verify_mf(m).ok for m in bad)


def test_specialized_zero_f_gets_the_full_check():
    """B and f scaled by lambda - 2 still factor; at lambda = 2 f vanishes
    and the full check's failure is reported, not the source's ok."""
    for m in (KST, mf_linear(3), mf_cone(PointP1(Scalar.of(3), ONE))):
        c = LAMBDA - 2
        scaled = MatrixFactorization(m.A, m.B._map(lambda p: p.scale(c)),
                                     m.f.scale(c))
        assert verify_mf(scaled).ok
        zero = scaled.specialize(2)
        assert verify_mf(zero).failures == (("f", -1, -1, "f is zero"),)
        assert verify_mf(zero) == fresh_certificate(zero)
        assert verify_mf(scaled.twist(1).specialize(2)) == verify_mf(zero)
        assert verify_mf(scaled.specialize(3)).ok


def test_failing_source_gives_its_constructions_the_full_check():
    """The source's failures are not handed on: each construction of a
    failing source lists its own, which at lambda = 3 are the symbolic
    defect (lambda - 2)*Y^2 evaluated there."""
    cone = mf_cone(PointP1(Scalar.of(3), ONE))
    bad = _with_entry(cone, "A", 3, 0,
                      BivariatePoly.monomial(0, 2, LAMBDA - 2))
    assert not verify_mf(bad).ok
    for m in (bad.specialize(3), bad.twist(1), bad.syzygy()):
        cert = verify_mf(m)
        assert not cert.ok and cert == fresh_certificate(m)
    assert verify_mf(bad.specialize(3)) != verify_mf(bad)


def test_long_construction_chain_verifies():
    """3000 alternating syzygies and twists, none verified on the way,
    each hold KST's certificate, and it is no field."""
    m = KST
    for _ in range(3000):
        m = m.syzygy().twist(1)
    copied = pickle.loads(pickle.dumps(m))
    assert (copied == m and hash(copied) == hash(m)
            and repr(copied) == repr(m))
    assert verify_mf(m).ok
    assert verify_mf(m) == fresh_certificate(m) == verify_mf(copied)
    # Each two steps are two syzygies, the twist by 4, and two twists by 1.
    assert m == KST.twist(1500 * 6)


def _dictionary_objects():
    c = mf_cone(PointP1(Scalar.of(2), ONE))
    named = ([("kst", KST)]
             + [(f"linear{i}", mf_linear(i)) for i in range(1, 5)]
             + [("cone", c), ("reduced-cone", reduce_mf(c))])
    return [pytest.param(m, id=name) for name, m in named]


@pytest.mark.parametrize("m", _dictionary_objects())
def test_twist_and_syzygy_dictionary(m):
    """twist(k) translates the Betti table by k and moves (rank, degree)
    by shift_rd(., -k); the syzygy is suspend_betti on the table, -1 on
    (rank, degree), and taken twice is the twist by deg f = 4.  Each holds
    whether the operation comes before or after reduce_mf."""
    red = reduce_mf(m)
    betti = betti_of_mf(red)
    rd = rd_from_betti(betti)
    assert m.syzygy().syzygy() == m.twist(4)
    for op, want_betti, want_rd in (
            [(lambda g, k=k: g.twist(k), translate_betti(betti, -k),
              shift_rd(rd, -k)) for k in range(-2, 3)]
            + [(MatrixFactorization.syzygy, suspend_betti(betti),
                shift_rd(rd, 2))]):
        for out in (reduce_mf(op(m)), op(red)):
            assert verify_mf(out).ok
            assert betti_of_mf(out) == want_betti
            assert rd_from_betti(betti_of_mf(out)) == want_rd
