"""Property tests of qlambda.Scalar against an independent sympy oracle.

Scalars are drawn as num/den coefficient lists with small rational entries
and parameter degree at most 3.  Every result is compared in canonical
form: sympy.cancel's num/den, rescaled to a monic den, against Scalar's
num/den.  hypothesis and sympy are test-only; the tests skip without them.
"""
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings                  # noqa: E402
from hypothesis import strategies as st                 # noqa: E402

from ellmf.qlambda import ZERO, Scalar, dot               # noqa: E402

L = sympy.Symbol("L")
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)

small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
coeffs = st.lists(small, min_size=0, max_size=4)
nonzero_coeffs = coeffs.filter(any)


@st.composite
def raw_scalars(draw):
    """(num, den) coefficient lists, den nonzero."""
    return draw(coeffs), draw(nonzero_coeffs)


def to_expr(c) -> "sympy.Expr":
    return sum((sympy.Rational(v.numerator, v.denominator) * L ** k
                for k, v in enumerate(c)), sympy.Integer(0))


def raw_expr(raw) -> "sympy.Expr":
    num, den = raw
    return to_expr(num) / to_expr(den)


def canonical(expr):
    """(num, den) of the reduced form of expr with a monic den, as Fraction
    tuples low degree first, zero as ()."""
    n, d = sympy.fraction(sympy.cancel(sympy.together(expr)))
    lead = sympy.Poly(d, L).LC()

    def side(p):
        cs = [Fraction(int(c.p), int(c.q))
              for c in reversed(sympy.Poly(p / lead, L).all_coeffs())]
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    return side(n), side(d)


def form(s: Scalar):
    return s.num, s.den


@SETTINGS
@given(raw_scalars())
def test_constructor_is_canonical(a):
    assert form(Scalar(*a)) == canonical(raw_expr(a))


@SETTINGS
@given(raw_scalars(), raw_scalars())
def test_ring_operations_match_oracle(a, b):
    x, y = Scalar(*a), Scalar(*b)
    ea, eb = raw_expr(a), raw_expr(b)
    assert form(x + y) == canonical(ea + eb)
    assert form(x - y) == canonical(ea - eb)
    assert form(x * y) == canonical(ea * eb)
    assert form(-x) == canonical(-ea)


@SETTINGS
@given(raw_scalars(), raw_scalars())
def test_division_and_inverse_match_oracle(a, b):
    x, y = Scalar(*a), Scalar(*b)
    if not y:
        with pytest.raises(ZeroDivisionError, match="inverting zero"):
            y.inverse()
        with pytest.raises(ZeroDivisionError, match="inverting zero"):
            x / y
        return
    eb = raw_expr(b)
    assert form(y.inverse()) == canonical(1 / eb)
    assert form(x / y) == canonical(raw_expr(a) / eb)


@SETTINGS
@given(raw_scalars(), small)
def test_specialize_matches_oracle(a, value):
    x = Scalar(*a)
    n, d = canonical(raw_expr(a))
    at = sympy.Rational(value.numerator, value.denominator)
    if to_expr(d).subs(L, at) == 0:
        with pytest.raises(ZeroDivisionError,
                           match=f"denominator vanishes at {value}$"):
            x.specialize(value)
        return
    got = x.specialize(value)
    want = to_expr(n).subs(L, at) / to_expr(d).subs(L, at)
    assert got.is_rational()
    assert got.as_fraction() == Fraction(int(want.p), int(want.q))


@SETTINGS
@given(raw_scalars(), raw_scalars(), nonzero_coeffs)
def test_equal_values_hash_equal(a, b, m):
    """The same value reached by different routes: equal and equally
    hashed."""
    x, y = Scalar(*a), Scalar(*b)
    factor = sympy.expand(to_expr(m))

    def times_m(c):
        p = sympy.Poly(sympy.expand(to_expr(c) * factor), L)
        return [Fraction(int(v.p), int(v.q)) for v in reversed(p.all_coeffs())]

    scaled = Scalar(times_m(a[0]), times_m(a[1]))
    assert scaled == x and hash(scaled) == hash(x)
    round_trip = x + y - y
    assert round_trip == x and hash(round_trip) == hash(x)
    if y:
        quotient = (x * y) / y
        assert quotient == x and hash(quotient) == hash(x)


ints = st.lists(st.integers(-6, 6), min_size=0, max_size=4)


@st.composite
def mixed_scalars(draw):
    """(num, den) with an integer, a rational-constant or a
    parameter-dependent denominator, or zero."""
    kind = draw(st.sampled_from(("integer", "constant", "lambda", "zero")))
    if kind == "integer":
        return [Fraction(v) for v in draw(ints)], [Fraction(1)]
    if kind == "constant":
        return draw(coeffs), [draw(small.filter(bool))]
    if kind == "lambda":
        return draw(coeffs), draw(coeffs.filter(lambda c: any(c[1:])))
    return [], [Fraction(1)]


pair_lists = st.lists(st.tuples(mixed_scalars(), mixed_scalars()),
                      min_size=0, max_size=6)


def sequential(pairs):
    total = ZERO
    for a, b in pairs:
        total = total + a * b
    return total


@SETTINGS
@given(pair_lists)
def test_dot_matches_sequential_sum_and_oracle(raw):
    pairs = [(Scalar(*a), Scalar(*b)) for a, b in raw]
    got = dot(pairs)
    assert got == sequential(pairs) and hash(got) == hash(sequential(pairs))
    want = sum((raw_expr(a) * raw_expr(b) for a, b in raw), sympy.Integer(0))
    assert form(got) == canonical(want)


@SETTINGS
@given(pair_lists, st.randoms(use_true_random=False))
def test_dot_cancels_to_zero(raw, rng):
    """Each product paired with its negation, in shuffled order."""
    pairs = [(Scalar(*a), Scalar(*b)) for a, b in raw]
    pairs += [(-a, b) for a, b in pairs]
    rng.shuffle(pairs)
    got = dot(pairs)
    assert got == ZERO and not got and form(got) == ((), (1,))


@SETTINGS
@given(st.lists(st.tuples(coeffs, small, st.booleans()), min_size=1,
                max_size=5),
       coeffs.filter(lambda c: any(c[1:])))
def test_dot_shared_lambda_denominator(terms, den):
    """Products num/den * c, or num * c, that share one parameter-dependent
    den, where the constants c bring integer denominators of their own."""
    raw = [((num, den if shared else [Fraction(1)]), ([c], [Fraction(1)]))
           for num, c, shared in terms]
    got = dot([(Scalar(*a), Scalar(*b)) for a, b in raw])
    want = sum((raw_expr(a) * raw_expr(b) for a, b in raw), sympy.Integer(0))
    assert form(got) == canonical(want)
