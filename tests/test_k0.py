import random
from fractions import Fraction
from itertools import product

import pytest

from ellmf.k0 import (
    DELTA, OMEGA, STRUCTURE_SHEAF, K0Class, RootKind, chi, classify_root,
    degree, enumerate_real_roots, euler_pairing, real_root_gamma_parts,
    invariants, line_bundle_class, LVector, q_form, rank,
    real_root_classes_with_rd, real_root_count, real_roots_bruteforce_box,
    simple_class, slope, tensor_omega, twist_by_c,
)


def random_class(rng, bound=10):
    return K0Class(rng.randint(-bound, bound),
                   tuple(rng.randint(-bound, bound) for _ in range(4)),
                   rng.randint(-bound, bound))


def test_class_rejects_non_integer_coordinates():
    # int() would make this a = (0, 1, 0, 0).
    with pytest.raises(TypeError, match="integers"):
        K0Class(1, (0.5, 1.7, 0, 0), 0)
    with pytest.raises(TypeError, match="integers"):
        K0Class(1.0, (0, 0, 0, 0), 0)
    with pytest.raises(TypeError, match="integers"):
        K0Class(1, (0, 0, 0, 0), True)
    assert K0Class(1, [0, 1, 0, 0], 0).a == (0, 1, 0, 0)


def test_structure_sheaf_invariants():
    assert invariants(STRUCTURE_SHEAF) == (1, 0, 1, Fraction(0))


def test_delta_and_simples():
    assert invariants(DELTA) == (0, 2, 1, None)
    for i in (1, 2, 3, 4):
        assert (rank(simple_class(i, 1)), degree(simple_class(i, 1))) == (0, 1)
        assert (rank(simple_class(i, 0)), degree(simple_class(i, 0))) == (0, 1)
        assert simple_class(i, 0) + simple_class(i, 1) == DELTA
        assert simple_class(i, 3) == simple_class(i, 1)


def test_omega_class():
    assert OMEGA == K0Class(1, (1, 1, 1, 1), -2)
    assert invariants(OMEGA) == (1, 0, -1, Fraction(0))


def test_slope_degenerate():
    assert slope(K0Class(0, (0, 0, 0, 0), 0)) is None
    assert slope(K0Class(0, (1, 0, 0, 0), 0)) is None
    assert slope(K0Class(-2, (1, 0, 0, 0), 0)) == Fraction(-1, 2)


def test_tensor_omega_involution():
    rng = random.Random(11)
    for _ in range(200):
        cl = random_class(rng)
        assert tensor_omega(tensor_omega(cl)) == cl
    assert tensor_omega(STRUCTURE_SHEAF) == OMEGA
    assert tensor_omega(DELTA) == DELTA
    for i in (1, 2, 3, 4):
        assert tensor_omega(simple_class(i, 1)) == simple_class(i, 0)


def test_twist_by_c_degree():
    rng = random.Random(12)
    for _ in range(200):
        cl = random_class(rng)
        cc = twist_by_c(cl)
        assert rank(cc) == rank(cl)
        assert degree(cc) == degree(cl) + 2 * rank(cl)


def test_line_bundle_class_normal_form():
    assert line_bundle_class(LVector((0, 0, 0, 0), 3)) == K0Class(
        1, (0, 0, 0, 0), 3)
    # 2 x_i = c folds into the ordinary-point part.
    assert line_bundle_class(LVector((2, 0, 0, 0), 0)) == K0Class(
        1, (0, 0, 0, 0), 1)
    assert line_bundle_class(LVector((1, 1, 1, 1), -2)) == OMEGA


def test_euler_pairing_chi():
    rng = random.Random(13)
    for _ in range(300):
        y = random_class(rng)
        assert euler_pairing(STRUCTURE_SHEAF, y) == chi(y)


def test_euler_pairing_serre_duality():
    rng = random.Random(14)
    for _ in range(300):
        x, y = random_class(rng), random_class(rng)
        assert euler_pairing(x, y) == -euler_pairing(y, tensor_omega(x))


def test_euler_pairing_riemann_roch():
    rng = random.Random(15)
    for _ in range(300):
        x, y = random_class(rng), random_class(rng)
        lhs = euler_pairing(x, y) + euler_pairing(x, tensor_omega(y))
        rhs = rank(x) * degree(y) - degree(x) * rank(y)
        assert lhs == rhs


def test_euler_pairing_tilting_values():
    oc = K0Class(1, (0, 0, 0, 0), 1)
    assert euler_pairing(STRUCTURE_SHEAF, oc) == 2
    for i in (1, 2, 3, 4):
        s = simple_class(i, 0)
        assert euler_pairing(STRUCTURE_SHEAF, s) == 1
        assert euler_pairing(oc, s) == 1
        assert euler_pairing(s, s) == 1
        for j in (1, 2, 3, 4):
            if j != i:
                assert euler_pairing(s, simple_class(j, 0)) == 0


def test_q_form_examples():
    assert q_form(STRUCTURE_SHEAF) == 1
    assert q_form(DELTA) == 0
    assert q_form(K0Class(1, (2, 0, 0, 0), 0)) == 3


def test_classify_root():
    assert classify_root(STRUCTURE_SHEAF).kind is RootKind.REAL
    assert classify_root(DELTA).kind is RootKind.IMAGINARY
    assert classify_root(2 * DELTA).kind is RootKind.IMAGINARY
    assert classify_root(K0Class(0, (0, 0, 0, 0), 0)).kind is RootKind.NOT_ROOT
    assert classify_root(K0Class(1, (2, 0, 0, 0), 0)).kind is RootKind.NOT_ROOT
    assert classify_root(K0Class(2, (1, 1, 1, 1), 0)).kind is RootKind.IMAGINARY


def test_gamma_parts_row_count_and_q():
    for m in (0, 1, 2):
        rows = real_root_gamma_parts(m)
        assert len(rows) == 24
        assert len(set(rows)) == 24
        for a0, a in rows:
            assert q_form(K0Class(a0, a, 0)) == 1


def test_gamma_parts_first_row():
    assert real_root_gamma_parts(0)[0] == (0, (1, 0, 0, 0))


def test_enumeration_matches_bruteforce_small():
    enum = {c.coords for c in enumerate_real_roots(1, -2, 2)}
    brute = {c.coords for c in real_roots_bruteforce_box(2, 2, 2)}
    # The brute-force box is smaller, so it must be contained.
    assert brute <= enum
    for coords in enum:
        assert q_form(K0Class(coords[0], coords[1:5], coords[5])) == 1


def test_real_root_classes_with_rd():
    for r in range(0, 6):
        for d in range(-8, 9):
            for cl in real_root_classes_with_rd(r, d):
                assert (rank(cl), degree(cl)) == (r, d)
                assert q_form(cl) == 1
    # Degree-parity obstruction: no even-rank class with even degree.
    assert real_root_classes_with_rd(2, 2) == []
    assert len(real_root_classes_with_rd(0, 1)) == 8


def test_real_root_classes_complete():
    wanted = {c.coords for c in real_roots_bruteforce_box(3, 3, 3)
              if rank(c) == 1 and degree(c) == 1}
    got = {c.coords for c in real_root_classes_with_rd(1, 1)}
    assert wanted <= got


def test_bad_inputs():
    with pytest.raises(ValueError, match="special point index must be 1..4"):
        simple_class(0, 1)
    # Indices that are not ints, bools included, are refused, not read
    # as a point or a parity.
    for i, j, bad in [(1, 1.5, "j"), (True, 1, "i"), (1.0, 1, "i"),
                      (2, False, "j"), (1, "1", "j")]:
        with pytest.raises(ValueError, match=f"special point index {bad} "
                           "must be an integer, got "):
            simple_class(i, j)
    with pytest.raises(ValueError):
        K0Class(1, (0, 0, 0), 0)
    with pytest.raises(ValueError):
        real_root_classes_with_rd(-1, 0)


def test_real_root_classes_equal_bruteforce():
    box = real_roots_bruteforce_box(6, 4, 14)
    for r in range(7):
        for d in range(-12, 13):
            want = [c for c in box if rank(c) == r and degree(c) == d]
            assert real_root_classes_with_rd(r, d) == want, (r, d)


def test_gamma_parts_blocks():
    for m in range(4):
        rows = real_root_gamma_parts(m)
        assert [a0 for a0, _ in rows] == [2 * m] * 4 + [2 * m + 1] * 16 + [
            2 * m + 2] * 4
        assert all(sorted(a) == [m, m, m, m + 1] for _, a in rows[:4])
        assert all(sorted(a) == [m, m + 1, m + 1, m + 1]
                   for _, a in rows[20:])
        highs = [a.count(m + 1) for _, a in rows[4:20]]
        assert highs == sorted(highs)
        assert {a for _, a in rows[4:20]} == set(
            product((m, m + 1), repeat=4))


def test_enumeration_has_no_duplicates():
    for args in ((0, 0, 0), (2, -3, 3), (4, -1, 2), (3, 5, 5)):
        coords = [c.coords for c in enumerate_real_roots(*args)]
        assert len(coords) == len(set(coords)), args
        assert len(coords) == 48 * (args[0] + 1) * (args[2] - args[1] + 1)


def test_real_root_count_is_enumeration_length():
    for m_max, n_min, n_max in product(range(3), range(-2, 2), range(-2, 2)):
        assert real_root_count(m_max, n_min, n_max) == len(
            enumerate_real_roots(m_max, n_min, n_max))
    with pytest.raises(ValueError, match="nonnegative"):
        real_root_count(-1, 0, 0)
