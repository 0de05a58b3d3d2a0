"""Property tests of qlambda.Scalar against an independent sympy oracle.

Scalars are drawn as num/den coefficient lists with small rational entries
and parameter degree at most 3 (4 for specialize).  Every result is
compared in canonical form: sympy.cancel's num/den, rescaled to a monic
den, against Scalar's num/den.  dot is also checked against a test-local
reference, single_path_dot: a second algorithm, with an lcm lane for
integer denominators, that is not the one under test.  poly.dot is
checked against that reference run once per monomial.  hypothesis and
sympy are test-only; the tests skip without them.
"""
import re
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings                  # noqa: E402
from hypothesis import strategies as st                 # noqa: E402

from ellmf import mf                                      # noqa: E402
from ellmf.poly import BivariatePoly                      # noqa: E402
from ellmf.poly import dot as poly_dot                    # noqa: E402
from ellmf.qlambda import ZERO, Scalar, _canon, _z_mul, dot  # noqa: E402

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


# --- dot over runs of rational constants, and the integer-only specialize ---

def single_path_dot(pairs):
    """An independent reference for dot, not the algorithm under test: a
    sum of products with an lcm lane.  Every product goes through one
    integer coefficient list over den*lam, where integer denominators meet
    in their lcm den and parameter-dependent ones multiply into lam,
    canonicalised by _canon at the end."""
    acc: list[int] = []
    den, lam = 1, (1,)
    for a, b in pairs:
        n1, d1, n2, d2 = a._n, a._d, b._n, b._d
        if not n1 or not n2:
            continue
        if len(d1) == 1 and len(d2) == 1:
            q = d1[0] * d2[0]
            m = 1
            if q != den:
                g = gcd(den, q)
                if g != q:
                    acc = [v * (q // g) for v in acc]
                m = den // g
                den = den // g * q
            if len(lam) > 1:
                n1 = _z_mul(n1, lam)
        else:
            q = _z_mul(d1, d2)
            if q != lam:
                if acc:
                    acc = list(_z_mul(acc, q))
                n1 = _z_mul(n1, lam)
                lam = _z_mul(lam, q)
            m = den
        top = len(n1) + len(n2) - 1
        if len(acc) < top:
            acc += [0] * (top - len(acc))
        for i, x in enumerate(n1):
            if x:
                x *= m
                for j, y in enumerate(n2, i):
                    acc[j] += x * y
    while acc and not acc[-1]:
        acc.pop()
    return _canon(tuple(acc), tuple(den * v for v in lam))


F1 = Fraction(1)
rational_constants = st.one_of(
    st.builds(lambda v: ([v], [F1]), small),
    st.sampled_from((([], [F1]), ([F1], [F1]), ([-F1], [F1]))))
constant_pairs = st.lists(st.tuples(rational_constants, rational_constants),
                          max_size=4)
other_pairs = st.lists(st.tuples(mixed_scalars(),
                                 st.one_of(mixed_scalars(),
                                           rational_constants)),
                       min_size=1, max_size=3)


@st.composite
def lane_pair_lists(draw):
    """Runs of constant pairs before, between and after runs of pairs that
    may depend on the parameter; with no such run, all constant."""
    raw = draw(constant_pairs)
    for _ in range(draw(st.integers(0, 2))):
        raw += draw(other_pairs) + draw(constant_pairs)
    return raw


@SETTINGS
@given(lane_pair_lists())
def test_dot_lanes_match_single_path_and_oracle(raw):
    """Runs of rational constants mixed with parameter-dependent products:
    dot equals the lcm-lane reference single_path_dot in the canonical
    pair, and sympy in value."""
    pairs = [(Scalar(*a), Scalar(*b)) for a, b in raw]
    got = dot(pairs)
    want = single_path_dot(pairs)
    assert (got._n, got._d) == (want._n, want._d)
    assert dot(iter(pairs)) == got and dot(p for p in pairs) == got
    oracle = sum((raw_expr(a) * raw_expr(b) for a, b in raw),
                 sympy.Integer(0))
    assert form(got) == canonical(oracle)


@SETTINGS
@given(raw_scalars(), st.lists(st.tuples(rational_constants,
                                         rational_constants), max_size=3),
       st.sampled_from((1, -1)), st.booleans())
def test_dot_lone_product_against_unit(a, zero_pads, sign, unit_first):
    """x*(+-1) among products that vanish is +-x, whatever object carries
    the unit."""
    x = Scalar(*a)
    unit = Scalar([Fraction(sign)])
    pads = [(Scalar(*c) * 0, Scalar(*e)) for c, e in zero_pads]
    pairs = [(unit, x) if unit_first else (x, unit)] + pads
    assert dot(pairs) == (x if sign == 1 else -x)
    assert dot(pads[::-1] + pairs[:1]) == dot(pairs)
    assert x + ZERO == x and ZERO - x == -x and x * Scalar.of(1) == x


wide_coeffs = st.lists(small, min_size=0, max_size=5)      # degree <= 4


@SETTINGS
@given(wide_coeffs, wide_coeffs.filter(any), small)
def test_specialize_is_fraction_evaluation(num, den, value):
    """N(v)/D(v) of the canonical N/D, evaluated over Fraction; the
    vanishing-denominator error keeps its message."""
    x = Scalar(num, den)

    def at(c):
        return sum((v * value ** k for k, v in enumerate(c)), Fraction(0))

    dv = at(x.den)
    if not dv:
        with pytest.raises(ZeroDivisionError,
                           match=f"^denominator vanishes at {value}$"):
            x.specialize(value)
        return
    got = x.specialize(value)
    assert got.is_rational() and got.as_fraction() == at(x.num) / dv
    assert got == Scalar.of(at(x.num) / dv)
    if value.denominator == 1:
        assert x.specialize(int(value)) == got


@pytest.mark.parametrize("value", [None, "one", object(), [1], 1j])
@pytest.mark.parametrize("s", [ZERO, Scalar.of(Fraction(2, 3)),
                               Scalar([1, 2], [3, 1])])
def test_specialize_non_numeric_raises_as_fraction_does(s, value):
    with pytest.raises(Exception) as want:
        Fraction(value)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        s.specialize(value)


def test_specialize_int_and_string_as_fraction():
    s = Scalar([1, 2, 0, 1], [3, 0, 1])
    assert s.specialize(3) == s.specialize(Fraction(3))
    assert s.specialize("2/5") == s.specialize(Fraction(2, 5))
    c = Scalar.of(Fraction(-4, 9))
    assert c.specialize(7) == c.specialize("1/2") == c


INEXACT_ENTRY_POINTS = {
    "Scalar.of": lambda v: Scalar.of(v),
    "Scalar-num": lambda v: Scalar([1, v]),
    "Scalar-den": lambda v: Scalar([1], [2, v]),
    "specialize": lambda v: Scalar([1, 2], [3, 1]).specialize(v),
    "specialize-rational": lambda v: Scalar.of(Fraction(2, 3)).specialize(v),
    "PointP1": lambda v: mf.PointP1(v, 1),
    "MatrixFactorization.specialize": lambda v: mf.KST.specialize(v),
}


@pytest.mark.parametrize("value", [0.1, 2.0, True, False])
@pytest.mark.parametrize("entry", sorted(INEXACT_ENTRY_POINTS))
def test_float_and_bool_refused_by_name(entry, value):
    """Fraction reads a float as its binary fraction, 0.1 as
    3602879701896397/36028797018963968, and a bool as 0 or 1.  Every way
    into Q(lambda) refuses both with a ValueError that names the value,
    specialize on a constant included."""
    with pytest.raises(ValueError, match=re.escape(f"got {value!r}")):
        INEXACT_ENTRY_POINTS[entry](value)


@st.composite
def bivariate_polys(draw):
    keys = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         max_size=5, unique=True))
    return BivariatePoly(tuple((k, Scalar(*draw(raw_scalars())))
                               for k in keys))


@SETTINGS
@given(bivariate_polys(), small)
def test_poly_specialize_matches_constructor(p, value):
    try:
        want = BivariatePoly(tuple((k, c.specialize(value))
                                   for k, c in p.terms))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            p.specialize(value)
        return
    got = p.specialize(value)
    assert got == want and got.terms == want.terms


# --- poly.dot: one pass over integer denominators, else one dot a monomial --

def monomial_groups(pairs):
    """The term products of the sum as (c1, c2) lists, by monomial."""
    groups = {}
    for p, q in pairs:
        for (i1, j1), c1 in p.terms:
            for (i2, j2), c2 in q.terms:
                groups.setdefault((i1 + i2, j1 + j2), []).append((c1, c2))
    return dict(sorted(groups.items()))


def by_monomial_dot(pairs):
    """poly.dot's reference: single_path_dot over each monomial's group,
    as (monomial, (_n, _d)) pairs."""
    coeffs = ((k, single_path_dot(g)) for k, g in
              monomial_groups(pairs).items())
    return tuple((k, (c._n, c._d)) for k, c in coeffs if c)


def scalar_expr(c: Scalar) -> "sympy.Expr":
    return to_expr(c.num) / to_expr(c.den)


def oracle_dot(pairs):
    """The nonzero coefficients of the sum, each summed by sympy."""
    sums = {k: sum((scalar_expr(a) * scalar_expr(b) for a, b in g),
                   sympy.Integer(0))
            for k, g in monomial_groups(pairs).items()}
    return {k: v for k, v in sums.items() if sympy.cancel(v) != 0}


def int_den_scalars():
    """(num, den) with den an integer or a rational constant."""
    return st.one_of(st.builds(lambda n: ([Fraction(v) for v in n], [F1]),
                               ints),
                     st.tuples(coeffs, st.lists(small.filter(bool),
                                                min_size=1, max_size=1)))


lambda_den_scalars = st.tuples(coeffs.filter(any),
                               coeffs.filter(lambda c: any(c[1:])))


@st.composite
def polys(draw, coefficients, lead=None):
    """Up to three terms of degree at most 2 in X and Y, so that products
    meet on shared monomials; with lead, at least one term, whose
    coefficient is drawn from lead."""
    keys = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         min_size=0 if lead is None else 1, max_size=3,
                         unique=True))
    drawn = [coefficients if lead is None else lead] + [coefficients] * (
        len(keys) - 1)
    return BivariatePoly(tuple((k, Scalar(*draw(c)))
                               for k, c in zip(keys, drawn)))


int_den_pairs = st.lists(st.tuples(polys(int_den_scalars()),
                                   polys(int_den_scalars())), max_size=4)


@st.composite
def lambda_den_pair(draw):
    """A pair with a term over a parameter-dependent denominator, on
    either side."""
    mixed = st.one_of(int_den_scalars(), lambda_den_scalars)
    p = draw(polys(mixed, lead=lambda_den_scalars))
    q = draw(polys(mixed))
    return (q, p) if draw(st.booleans()) else (p, q)


@st.composite
def poly_pair_lists(draw, where):
    """Pairs over integer denominators with a pair over a
    parameter-dependent one first, after a run of them, or nowhere."""
    raw = draw(int_den_pairs)
    if where == "first":
        raw = [draw(lambda_den_pair())] + raw
    elif where == "after":
        raw = raw + [draw(lambda_den_pair())] + draw(int_den_pairs)
    return raw


WHERE = ("none", "first", "after")


def terms_form(p: BivariatePoly):
    return tuple((k, (c._n, c._d)) for k, c in p.terms)


@pytest.mark.parametrize("where", WHERE)
@SETTINGS
@given(data=st.data())
def test_poly_dot_matches_per_monomial_dot_and_oracle(where, data):
    pairs = data.draw(poly_pair_lists(where))
    got = poly_dot(pairs)
    assert terms_form(got) == by_monomial_dot(pairs)
    assert poly_dot(iter(pairs)) == got and poly_dot(p for p in pairs) == got
    want = oracle_dot(pairs)
    assert [k for k, _ in got.terms] == sorted(want)
    for k, c in got.terms:
        assert form(c) == canonical(want[k])


@pytest.mark.parametrize("where", WHERE)
@SETTINGS
@given(data=st.data(), rng=st.randoms(use_true_random=False))
def test_poly_dot_cancels_to_zero(where, data, rng):
    """Each pair next to its negation, in shuffled order, zero operands
    included."""
    pairs = data.draw(poly_pair_lists(where))
    pairs = pairs + [(-p, q) for p, q in pairs]
    pairs += [(BivariatePoly.zero(), q) for _, q in pairs[:2]]
    rng.shuffle(pairs)
    assert poly_dot(pairs).terms == ()
    assert poly_dot([]) == BivariatePoly.zero()


scale_factors = st.one_of(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(lambda c: Scalar(*c), int_den_scalars()),
    st.builds(lambda c: Scalar(*c), lambda_den_scalars))


@SETTINGS
@given(polys(st.one_of(int_den_scalars(), lambda_den_scalars)),
       scale_factors)
def test_scale_is_termwise_product(p, c):
    """scale(c) for a rational, an integer-denominator and a
    parameter-denominator c is the product taken term by term."""
    s = Scalar.of(c)
    want = tuple((k, v * s) for k, v in p.terms if s)
    assert terms_form(p.scale(c)) == tuple((k, (v._n, v._d))
                                           for k, v in want)


def entrywise(m, value):
    """MatrixFactorization.specialize as one call per cell."""
    def at(g):
        return mf.GradedMatrix(tuple(tuple(e.specialize(value) for e in row)
                                     for row in g.entries),
                               g.row_twists, g.col_twists)
    return mf.MatrixFactorization(at(m.A), at(m.B), m.f.specialize(value))


def cells(m):
    return [e for g in (m.A, m.B) for row in g.entries for e in row] + [m.f]


def test_cone_shares_entries():
    """The KST blocks and the chain-map entries are shared between cells,
    so MatrixFactorization.specialize has objects to specialize once."""
    m = mf.mf_cone(mf.PointP1(mf.LAMBDA * 2 + 1, mf.ONE))
    assert (len(cells(m)), len({id(e) for e in cells(m)})) == (33, 15)


@SETTINGS
@given(st.integers(-3, 3).filter(bool), st.integers(-5, 5), small,
       st.booleans())
def test_specialize_shared_entries_as_entrywise(a, b, value, reduced):
    """A cone over [a*lambda + b : 1], or its reduction, whose denominator
    vanishes at lambda = -b/a: the same factorization, or the same error,
    as specializing cell by cell; cells that were one object stay one."""
    m = mf.mf_cone(mf.PointP1(mf.LAMBDA * a + b, mf.ONE))
    if reduced:
        m = mf.reduce_mf(m)
    for v in (value, Fraction(-b, a)):
        try:
            want = entrywise(m, v)
        except ZeroDivisionError as e:
            with pytest.raises(ZeroDivisionError,
                               match=f"^{re.escape(str(e))}$"):
                m.specialize(v)
            continue
        got = m.specialize(v)
        assert got == want
        first = {}
        for e, s in zip(cells(m), cells(got)):
            assert first.setdefault(id(e), s) is s
