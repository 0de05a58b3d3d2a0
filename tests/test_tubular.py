import random
import time
from fractions import Fraction
from math import ceil, floor

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:       # test-only dependency; the property test skips
    st = None

from ellmf.k0 import K0Class, euler_pairing, simple_class
from ellmf.shift import mat_apply, mat_mul
from ellmf.tubular import (
    MutationWord, R_MATRIX, S_MATRIX, phi_from_infinity, mutate_pair_left,
    mutate_pair_right, tube_invariants, word_for_slope,
)


def slope_of(v):
    r, d = v
    return Fraction(d, r) if r else None


def apply_letters(word: str, q: Fraction) -> Fraction:
    """Independent oracle: the letter maps R: q -> q/(q+1), S: q -> q+1,
    rightmost letter first."""
    for ch in reversed(word):
        q = q / (q + 1) if ch == "R" else q + 1
    return q


def oracle_runs(q: Fraction):
    """Independent oracle for the word of q > 0: undo the letters on the
    slope itself, S^-k: q -> q - k while q > 1, R^-k: 1/q -> 1/q - k while
    q < 1, each k the most that keeps the slope >= 1 or <= 1."""
    runs = []
    while q != 1:
        if q > 1:
            k = ceil(q) - 1
            runs.append(("S", k))
            q -= k
        else:
            k = ceil(1 / q) - 1
            runs.append(("R", k))
            q = 1 / (1 / q - k)
    return tuple(runs)


def oracle_word_matrix(q: Fraction):
    """The explicit product of the R^k and S^k matrices, outermost first."""
    out = ((1, 0), (0, 1))
    for ch, k in oracle_runs(q):
        out = mat_mul(out, ((1, k), (0, 1)) if ch == "R"
                      else ((1, 0), (k, 1)))
    return out


def oracle_phi(q: Fraction):
    """The slope matrix as first defined: the word matrix of q + m, then R,
    then S^-m, with m = floor(-q) + 1 for q <= 0 and 0 otherwise."""
    m = 0 if q > 0 else floor(-q) + 1
    return mat_mul(((1, 0), (-m, 1)),
                   mat_mul(oracle_word_matrix(q + m), R_MATRIX))


ORACLE_SLOPES = sorted({Fraction(n, d) for n in range(-60, 61)
                        for d in range(1, 41)}
                       | {Fraction(q) for q in (0, 1, -1, 10**5, -10**9)})


def test_phi_from_infinity_matches_the_product_oracle():
    for q in ORACLE_SLOPES:
        assert phi_from_infinity(q) == oracle_phi(q), q
        if q.denominator == 1:
            assert phi_from_infinity(int(q)) == oracle_phi(q), q


def test_word_matrix_matches_the_product_oracle():
    for q in ORACLE_SLOPES:
        if q > 0:
            w = word_for_slope(q)
            assert w.runs == oracle_runs(q), q
            assert w.matrix() == oracle_word_matrix(q), q


def test_generator_matrices():
    assert R_MATRIX == ((1, 1), (0, 1))
    assert S_MATRIX == ((1, 0), (1, 1))


def test_word_for_slope_examples():
    assert str(word_for_slope(1)) == ""
    assert str(word_for_slope(Fraction(2, 5))) == "RRS"
    assert str(word_for_slope(3)) == "SS"
    w = word_for_slope(Fraction(2, 5))
    assert w.runs == (("R", 2), ("S", 1))
    assert w.apply_to_slope(Fraction(1)) == Fraction(2, 5)
    assert apply_letters(str(w), Fraction(1)) == Fraction(2, 5)


def test_word_round_trip_random():
    rng = random.Random(21)
    for _ in range(200):
        q = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        w = word_for_slope(q)
        assert apply_letters(str(w), Fraction(1)) == q
        assert w.apply_to_slope(Fraction(1)) == q
        start = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        assert w.apply_to_slope(start) == apply_letters(str(w), start)


def test_phi_from_infinity_positive():
    m = phi_from_infinity(Fraction(2, 5))
    assert m == ((3, 5), (1, 2))
    r, d = mat_apply(m, (0, 1))
    assert Fraction(d, r) == Fraction(2, 5)


def test_phi_from_infinity_basepoints():
    assert phi_from_infinity(1) == ((1, 1), (0, 1))
    assert phi_from_infinity(0) == ((1, 1), (-1, 0))


def test_phi_unimodular_and_correct():
    rng = random.Random(22)
    for _ in range(150):
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        m = phi_from_infinity(q)
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
        r, d = mat_apply(m, (0, 1))
        assert r > 0 and Fraction(d, r) == q


def test_phi_from_infinity_far_negative_slope():
    """q <= 0 takes one S^-m step, not |q| unit steps."""
    q = Fraction(-10**9)
    start = time.perf_counter()
    m = phi_from_infinity(q)
    assert time.perf_counter() - start < 1.0
    assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
    r, d = mat_apply(m, (0, 1))
    assert r > 0 and Fraction(d, r) == q


def test_phi_from_infinity_large_positive_slope():
    """q > 0 takes one matrix power per run of the word, not one product
    per letter."""
    q = Fraction(100000)
    start = time.perf_counter()
    m = phi_from_infinity(q)
    assert time.perf_counter() - start < 0.1
    assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
    r, d = mat_apply(m, (0, 1))
    assert r > 0 and Fraction(d, r) == q


def test_word_runs_are_a_tuple_of_pairs():
    # A list of runs is stored as a tuple of pairs, so the word hashes,
    # and a word built by word_for_slope equals its validated rebuild.
    w = MutationWord([["R", 2], ("S", 1)])
    assert w.runs == (("R", 2), ("S", 1)) and type(w.runs) is tuple
    assert all(type(run) is tuple for run in w.runs)
    assert hash(w) == hash(MutationWord((("R", 2), ("S", 1))))
    rng = random.Random(28)
    for _ in range(200):
        v = word_for_slope(Fraction(rng.randint(1, 500), rng.randint(1, 500)))
        assert MutationWord(v.runs) == v


def test_bad_word_letters():
    with pytest.raises(ValueError):
        MutationWord((("R", 1), ("Q", 1)))
    with pytest.raises(ValueError):
        MutationWord((("R", 0),))
    with pytest.raises(ValueError):
        word_for_slope(0)


@pytest.mark.parametrize("q", [0.1, 0.5, 2.0, True, False, "1/2", None])
def test_slope_must_be_int_or_fraction(q):
    # A float would be read as its binary fraction: 0.1 has the word
    # R9 S1 R1801439850948197 S1.
    for fn in (word_for_slope, phi_from_infinity):
        with pytest.raises(ValueError) as info:
            fn(q)
        assert str(info.value) == \
            f"slope must be an int or a Fraction, got {q!r}"


def test_word_for_large_slope_is_one_run():
    w = word_for_slope(100000)
    assert w.runs == (("S", 99999),)
    assert w.apply_to_slope(Fraction(1)) == 100000


def test_tube_invariants():
    info = tube_invariants((2, 0))
    assert info.g == 2 and info.rank_one_exists
    assert info.rank_one_length == 1 and info.rank_two_length == 2
    assert not info.finitely_many and not info.has_exceptional

    info = tube_invariants((0, 1))
    assert info.g == 1 and not info.rank_one_exists
    assert info.finitely_many and info.count_if_finite == 8
    assert info.has_exceptional

    info = tube_invariants((3, 3))
    assert info.g == 3 and info.finitely_many and not info.has_exceptional
    with pytest.raises(ValueError):
        tube_invariants((0, 0))


def test_k0_mutations():
    e = K0Class(1, (0, 0, 0, 0), 0)
    f = simple_class(1, 0)
    le, same_e = mutate_pair_left(e, f)
    assert same_e == e
    assert le == f - euler_pairing(e, f) * e
    g, rg = mutate_pair_right(le, e)
    assert g == e
    # Here chi(f, e) = 0, so the right mutation undoes the left one.
    assert euler_pairing(f, e) == 0
    assert rg == f


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_phi_wide_slopes_are_unimodular_onto_the_slope():
    """The second column is the slope's (denominator, numerator)."""
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**40, 10**40), st.integers(1, 10**40))
    def check(n, d):
        q = Fraction(n, d)
        (a, b), (c, e) = phi_from_infinity(q)
        assert a * e - b * c == 1
        assert (b, e) == (q.denominator, q.numerator) and b > 0
    check()
