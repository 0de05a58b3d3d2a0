import random
from fractions import Fraction

import pytest

from ellmf.poly import BivariatePoly, X, Y
from ellmf.qlambda import LAMBDA, ONE, Scalar, p_trim


def rand_scalar(rng):
    return Scalar(p_trim([Fraction(rng.randint(-5, 5)) for _ in range(3)]),
                  p_trim([Fraction(rng.randint(-5, 5)) for _ in range(2)])
                  or (Fraction(1),))


def rand_poly(rng, terms=4, deg=4):
    d = {}
    for _ in range(terms):
        d[(rng.randint(0, deg), rng.randint(0, deg))] = rand_scalar(rng)
    return BivariatePoly.from_dict(d)


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
