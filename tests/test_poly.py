import random
from fractions import Fraction

import pytest

from ellmf.poly import MINUS_UNIT, UNIT, BivariatePoly, X, Y, dot
from ellmf.qlambda import LAMBDA, MINUS_ONE, ONE, Scalar, p_trim


def rand_scalar(rng):
    return Scalar(p_trim([Fraction(rng.randint(-5, 5)) for _ in range(3)]),
                  p_trim([Fraction(rng.randint(-5, 5)) for _ in range(2)])
                  or (Fraction(1),))


def rand_poly(rng, terms=4, deg=4):
    d = {}
    for _ in range(terms):
        d[(rng.randint(0, deg), rng.randint(0, deg))] = rand_scalar(rng)
    return BivariatePoly(d.items())


def test_scalar_canonical_form():
    s = Scalar((Fraction(2), Fraction(2)), (Fraction(2),))
    assert s.num == (1, 1) and s.den == (1,)
    t = Scalar((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
    assert t == ONE
    with pytest.raises(ZeroDivisionError):
        Scalar((Fraction(1),), ())


def test_scalar_field_axioms_random():
    rng = random.Random(41)
    for _ in range(100):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a - a == Scalar(())
        if b:
            assert (a / b) * b == a


def test_scalar_specialize():
    s = (ONE + LAMBDA) / (ONE - LAMBDA)
    assert s.specialize(Fraction(3)).as_fraction() == Fraction(-2)
    with pytest.raises(ZeroDivisionError):
        s.specialize(Fraction(1))


def test_lambda_coeffs():
    s = ONE + LAMBDA * LAMBDA
    assert s.lambda_coeffs() == (1, 0, 1)
    with pytest.raises(ValueError):
        (ONE / LAMBDA).lambda_coeffs()


def test_scalar_immutable_rsub_and_as_fraction():
    s = ONE + LAMBDA
    with pytest.raises(AttributeError, match="Scalar is immutable"):
        s._n = (2,)
    assert 1 - LAMBDA == Scalar((1, -1))
    assert Fraction(1, 2) - LAMBDA == Scalar((Fraction(1, 2), -1))
    for dependent in (LAMBDA, ONE / (LAMBDA + 1)):
        with pytest.raises(ValueError, match="depends on the parameter"):
            dependent.as_fraction()


def test_str_with_lambda_denominator():
    p = (BivariatePoly.monomial(1, 0, ONE / (LAMBDA + 1))
         + BivariatePoly.monomial(0, 2, (LAMBDA * 2 - 1) / (LAMBDA * 3))
         + Y.scale(LAMBDA))
    assert str(p) == ("(1*L)Y + ((-1/3 + 2/3*L)/(1*L))Y^2"
                      " + ((1)/(1 + 1*L))X")


def test_poly_ring_axioms_random():
    rng = random.Random(42)
    z = BivariatePoly.zero()
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == z
        assert a * b == b * a


def test_homogeneity_queries():
    f = X * X * Y - X * Y * Y
    assert f.is_homogeneous_of(3)
    assert not (f + X).is_homogeneous_of(3)
    assert f.total_degree() == 3
    assert BivariatePoly.zero().total_degree() is None
    assert BivariatePoly.monomial(0, 0, 7).is_scalar()
    assert not X.is_scalar()


def test_specialize_poly():
    f = X.scale(LAMBDA) + Y
    g = f.specialize(Fraction(2))
    assert g == X.scale(Scalar.of(2)) + Y


def rand_homogeneous(rng, deg, terms=3):
    d = {}
    for _ in range(terms):
        i = rng.randint(0, deg)
        d[(i, deg - i)] = rand_scalar(rng)
    return BivariatePoly(d.items())


def assert_canonical(p):
    """Sorted distinct monomials, no zero coefficient, and equal (with the
    same hash) to its re-canonicalisation by the public constructor."""
    assert isinstance(p.terms, tuple)
    keys = [k for k, _ in p.terms]
    assert keys == sorted(set(keys))
    assert all(isinstance(c, Scalar) and c for _, c in p.terms)
    ref = BivariatePoly(p.terms)
    assert p == ref and hash(p) == hash(ref)


def naive_product(a, b):
    """Every term product handed to the public constructor to merge."""
    return BivariatePoly(tuple(((i1 + i2, j1 + j2), c1 * c2)
                               for (i1, j1), c1 in a.terms
                               for (i2, j2), c2 in b.terms))


def test_arithmetic_results_are_canonical():
    rng = random.Random(43)
    for _ in range(80):
        d = rng.randint(0, 3)
        a, b = rand_homogeneous(rng, d), rand_homogeneous(rng, d)
        c = rand_homogeneous(rng, rng.randint(0, 3))
        s = rand_scalar(rng)
        results = [a + b, a - b, a * c, c * a, -a, a.scale(s), a - a,
                   a + (-a), a.scale(0)]
        for r in results:
            assert_canonical(r)
        assert a * c == naive_product(a, c)


def test_scale_by_plus_minus_one_equals_dot():
    """scale(1) is self and scale(-1) is -self, with no dot pass; both equal
    the dot against the constant, whatever form +-1 is given in."""
    rng = random.Random(44)
    for p in [BivariatePoly.zero()] + [rand_poly(rng) for _ in range(30)]:
        for one in (1, Fraction(1), ONE):
            assert p.scale(one) is p
            assert p.scale(one) == dot(((p, UNIT),))
        for minus_one in (-1, Fraction(-1), MINUS_ONE):
            assert p.scale(minus_one) == -p == dot(((p, MINUS_UNIT),))


def test_fast_path_edge_cases():
    p = X.scale(LAMBDA) + Y * Y
    assert p.scale(0) == BivariatePoly.zero() and p.scale(0).terms == ()
    assert p.scale(Scalar.of(0)).is_zero()
    assert X - X == BivariatePoly.zero()
    assert (X - X).terms == () and hash(X - X) == hash(BivariatePoly.zero())
    assert (p - p).total_degree() is None
    # Products whose coefficients cancel drop those monomials.
    square_diff = (X + Y) * (X - Y)
    assert square_diff.terms == (((0, 2), -ONE), ((2, 0), ONE))
    assert_canonical(square_diff)
    # Outside input still goes through the public constructor: unsorted,
    # repeated and zero terms are merged, sorted and dropped.
    q = BivariatePoly((((0, 1), 2), ((1, 0), ONE), ((0, 1), -2),
                       ((2, 0), 0)))
    assert q.terms == (((1, 0), ONE),)
