import pytest

from ellmf import shift
from ellmf.shift import (
    SHIFT_MATRIX, OrbitError, Region, in_fundamental_domain, mat_mul,
    mat_pow, reduce_to_fundamental, region, shift_rd,
)

IDENTITY = ((1, 0), (0, 1))


def test_shift_matrix_order_four():
    assert mat_pow(SHIFT_MATRIX, 2) == ((-1, 0), (0, -1))
    assert mat_pow(SHIFT_MATRIX, 4) == IDENTITY


def test_shift_rd_periodic():
    p = (3, -7)
    assert shift_rd(p, 4) == p
    assert shift_rd(p, -1) == shift_rd(p, 3)
    assert shift_rd(p, 1) == (SHIFT_MATRIX[0][0] * 3 + SHIFT_MATRIX[0][1] * -7,
                              SHIFT_MATRIX[1][0] * 3 + SHIFT_MATRIX[1][1] * -7)


def test_regions():
    assert region((0, 1)) is Region.R1
    assert region((2, 3)) is Region.R1
    assert region((2, 0)) is Region.R2
    assert region((0, 0)) is Region.OUTSIDE
    assert region((1, -3)) is Region.R3
    assert region((1, -2)) is Region.OUTSIDE
    assert region((-1, 1)) is Region.OUTSIDE


def test_reduce_examples():
    assert reduce_to_fundamental((0, 1)) == ((0, 1), 0)
    q, k = reduce_to_fundamental((-3, 1))
    assert q == (2, -5) and in_fundamental_domain(q)
    assert shift_rd((-3, 1), k) == q


def test_orbit_meets_domain_once():
    for r in range(-30, 31):
        for d in range(-30, 31):
            if (r, d) == (0, 0):
                continue
            hits = [k for k in range(4)
                    if in_fundamental_domain(shift_rd((r, d), k))]
            assert len(hits) == 1, (r, d, hits)


def test_zero_class_rejected():
    with pytest.raises(ValueError):
        reduce_to_fundamental((0, 0))


def test_mat_mul_identity():
    assert mat_mul(SHIFT_MATRIX, IDENTITY) == SHIFT_MATRIX


def test_reduce_orbit_error_is_typed(monkeypatch):
    """An orbit meeting the domain other than once raises OrbitError, a
    ValueError, instead of an AssertionError."""
    monkeypatch.setattr(shift, "in_fundamental_domain", lambda p: True)
    with pytest.raises(OrbitError, match="meets the domain 4 times"):
        reduce_to_fundamental((1, 1))
    assert issubclass(OrbitError, ValueError)


def test_reduce_matches_the_naive_loop():
    # The shifts computed twice over, as first written.
    for r in range(-50, 51):
        for d in range(-50, 51):
            if (r, d) == (0, 0):
                continue
            hits = [(shift_rd((r, d), k), k) for k in range(4)
                    if in_fundamental_domain(shift_rd((r, d), k))]
            assert [reduce_to_fundamental((r, d))] == hits, (r, d)


def test_mat_mul_matches_the_sum_of_products():
    ms = [SHIFT_MATRIX, IDENTITY, ((2, -3), (5, 7)), ((0, 1), (-1, 4))]
    for m1 in ms:
        for m2 in ms:
            assert mat_mul(m1, m2) == tuple(
                tuple(sum(m1[i][k] * m2[k][j] for k in range(2))
                      for j in range(2)) for i in range(2))
