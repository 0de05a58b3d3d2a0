"""End-to-end acceptance gate.

Each test covers one numbered criterion; the terminal-summary hook in
conftest prints one PASS/FAIL verdict line per criterion.  All checks are
exact; the timed ones assert their budget.
"""
import random
import time
from fractions import Fraction
from math import gcd

from ellmf.k0 import (
    STRUCTURE_SHEAF, K0Class, chi, degree, enumerate_real_roots,
    euler_pairing, rank, real_root_classes_with_rd,
    real_roots_bruteforce_box, tensor_omega, twist_by_c,
)
from ellmf.mf import (
    BRANCH_POINTS, KST, PointP1, betti_of_mf, lemma63_invariants, mf_cone,
    mf_linear, mf_Mp_reduced, reduce_mf, verify_mf,
)
from ellmf.qlambda import ONE, Scalar
from ellmf.shift import (
    SHIFT_MATRIX, Region, in_fundamental_domain, mat_pow, region, shift_rd,
)
from ellmf.tables import (
    betti_from_cohom, catalog, cohom_rank_one, cohom_rank_two,
    cohom_via_euler, hilbert, indec_count, normalize_and_classify,
    rd_from_betti,
)
from ellmf.tubular import phi_from_infinity, word_for_slope



def fundamental_pairs(r_max, d_max):
    for r in range(r_max + 1):
        for d in range(-d_max, d_max + 1):
            if (r, d) != (0, 0) and region((r, d)) is not Region.OUTSIDE:
                yield r, d


def test_criterion_1_root_enumeration():
    t0 = time.monotonic()
    enum = enumerate_real_roots(5, -5, 5)
    brute = real_roots_bruteforce_box(12, 6, 5)
    assert {c.coords for c in enum} == {c.coords for c in brute}
    assert len(enum) == len(brute)
    for cl in enum:
        assert rank(cl) == cl.a0
        assert degree(cl) == sum(cl.a) + 2 * cl.n
        assert chi(cl) == cl.a0 + cl.n
    assert time.monotonic() - t0 < 10.0


def test_criterion_2_chi_multiplicities():
    for r in range(0, 21):
        for d in range(-40, 41):
            if (r, d) == (0, 0) or gcd(r, abs(d)) % 2 == 0:
                continue
            chis = sorted(chi(c) for c in real_root_classes_with_rd(r, d))
            if d % 2 != 0:
                expect = sorted([(d - 1) // 2] * 4 + [(d + 1) // 2] * 4)
            else:
                assert r % 2 == 1
                expect = sorted([d // 2 - 1] + [d // 2] * 6 + [d // 2 + 1])
            assert chis == expect, (r, d)


def expected_rank_one(r, d):
    if gcd(r, abs(d)) % 2 == 1:
        return None
    if d > 0:
        h = d // 2
        return ((h, h), (h + r, h + r), (0, 0), (0, 0))
    if d == 0:
        return ((0, 0), (r, r), (0, 0), (0, 0))
    h = -d // 2
    return ((0, 0), (0, 0), (h, h), (h - r, h - r))


def expected_rank_two(r, d):
    def pack(h0, h0w):
        if d > 0:
            return ((h0, h0w), (h0w + r, h0 + r), (0, 0), (0, 0))
        return ((0, 0), (0, 0), (-h0, -h0w), (-h0w - r, -h0 - r))

    if d == 0:
        if r % 2 == 1:
            socle = ((1, 0), (r - 1, r + 1), (1, 0), (0, 0))
        else:
            socle = ((1, 0), (r, r), (0, 1), (0, 0))
        mirror = tuple((b, a) for a, b in socle)
        return [(socle, 1), (mirror, 1),
                (((0, 0), (r, r), (0, 0), (0, 0)), 6)]
    if d % 2 != 0:
        plus = pack((d + 1) // 2, (d - 1) // 2)
        minus = tuple((b, a) for a, b in plus)
        return [(plus, 4), (minus, 4)]
    diag = pack(d // 2, d // 2)
    if r % 2 == 1:
        plus = pack(d // 2 + 1, d // 2 - 1)
        minus = tuple((b, a) for a, b in plus)
        return [(plus, 1), (minus, 1), (diag, 6)]
    return [(diag, 8)]


def test_criterion_3_cohom_tables():
    for r, d in fundamental_pairs(10, 30):
        one = cohom_rank_one((r, d))
        want = expected_rank_one(r, d)
        assert (one.rows if one else None) == want, (r, d)
        got = [(t.rows, m) for t, m, _ in cohom_rank_two((r, d))]
        assert got == expected_rank_two(r, d), (r, d)
    for r, d in fundamental_pairs(6, 18):
        if region((r, d)) is Region.R2:
            continue
        listed = [t for t, _, _ in cohom_rank_two((r, d))]
        for cl in real_root_classes_with_rd(r, d):
            assert cohom_via_euler(cl) in listed, (r, d, cl)


EXPECTED_COUNTS = {"II": 4, "III": 4, "IV": 1, "V": 1,
                   "first-kind-odd-a": 1, "first-kind-odd-b": 1,
                   "first-kind-even-a": 1, "first-kind-even-b": 1}


def test_criterion_4_catalog():
    seen_kinds = set()
    for r, d in fundamental_pairs(10, 30):
        sources = []
        one = cohom_rank_one((r, d))
        if one is not None:
            sources.append(one)
        sources.extend(t for t, _, _ in cohom_rank_two((r, d)))
        for t in sources:
            bt = betti_from_cohom(t)
            if bt.is_empty():
                continue
            cls = normalize_and_classify(bt)
            seen_kinds.add(cls.kind)
            if cls.kind == "I":
                assert cls.params[1] != 0
            if cls.kind in ("IV", "V"):
                assert (cls.params[1] - cls.params[0]) % 2 == 1
            rr, dd = rd_from_betti(bt)
            hits = [k for k in range(4)
                    if shift_rd((rr, dd), k) == (r, d)]
            assert hits, (r, d, cls)
            count = indec_count(cls)
            if cls.kind in EXPECTED_COUNTS:
                assert count.finite == EXPECTED_COUNTS[cls.kind]
            else:
                a, b = cls.params
                if (b - a) % 2 == 1:
                    assert count.finite == 6
                elif a != 0:
                    assert count.finite is None
                    assert count.level == gcd(abs(b - a), 2 * a) // 2
                    assert count.base == "full-line"
                else:
                    assert count.finite is None and count.level == b // 2
                    assert count.base == "line-minus-infinity"
    assert {"I", "II", "III", "IV", "V"} <= seen_kinds


def test_criterion_5_shift_action():
    t0 = time.monotonic()
    ident = ((1, 0), (0, 1))
    assert mat_pow(SHIFT_MATRIX, 2) == ((-1, 0), (0, -1))
    assert mat_pow(SHIFT_MATRIX, 4) == ident
    for r in range(-100, 101):
        for d in range(-100, 101):
            if (r, d) == (0, 0):
                continue
            hits = sum(1 for k in range(4)
                       if in_fundamental_domain(shift_rd((r, d), k)))
            assert hits == 1, (r, d)
    assert time.monotonic() - t0 < 1.0


def test_criterion_6_lattice_identities():
    rng = random.Random(20260824)
    for _ in range(1000):
        x = K0Class(rng.randint(-20, 20),
                    tuple(rng.randint(-20, 20) for _ in range(4)),
                    rng.randint(-20, 20))
        y = K0Class(rng.randint(-20, 20),
                    tuple(rng.randint(-20, 20) for _ in range(4)),
                    rng.randint(-20, 20))
        assert tensor_omega(tensor_omega(x)) == x
        assert euler_pairing(STRUCTURE_SHEAF, y) == chi(y)
        assert euler_pairing(x, y) == -euler_pairing(y, tensor_omega(x))
        rr = euler_pairing(x, y) + euler_pairing(x, tensor_omega(y))
        assert rr == rank(x) * degree(y) - degree(x) * rank(y)
        assert degree(twist_by_c(x)) == degree(x) + 2 * rank(x)


def test_criterion_7_symbolic_mf():
    t0 = time.monotonic()
    assert verify_mf(KST).ok
    for i in (1, 2, 3, 4):
        assert verify_mf(mf_linear(i)).ok
    assert verify_mf(mf_Mp_reduced(PointP1(Scalar.of(0), ONE))).ok
    assert verify_mf(mf_Mp_reduced(PointP1(ONE, Scalar.of(0)))).ok
    for p in BRANCH_POINTS:
        assert verify_mf(mf_cone(p)).ok
    rng = random.Random(9)
    points = list(BRANCH_POINTS)
    while len(points) < 20:
        q = Fraction(rng.randint(-15, 15), rng.randint(1, 15))
        points.append(PointP1(Scalar.of(q), ONE))
    target = {(0, 0): 1, (0, 1): 1, (1, 2): 1, (1, 3): 1}
    for p in points:
        red = reduce_mf(mf_cone(p))
        bt = betti_of_mf(red)
        assert bt.as_dict() == target, p
        assert bt == betti_of_mf(mf_Mp_reduced(p))
    assert time.monotonic() - t0 < 30.0


def test_criterion_8_ulrich():
    hits = []
    for c, t in catalog(20, 20, 40):
        _, e, mu, is_ulrich = hilbert(t)
        if is_ulrich:
            hits.append((c.kind, c.params, e, mu))
        else:
            assert e > mu, (c, e, mu)
    assert hits == [("III", (0, 0), 1, 1)]


def test_criterion_9_slope_words():
    for a in range(1, 51):
        for b in range(1, 51):
            q = Fraction(a, b)
            w = word_for_slope(q)
            assert w.apply_to_slope(Fraction(1)) == q
            m = phi_from_infinity(q)
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
            r = m[0][1]
            d = m[1][1]
            assert r > 0 and Fraction(d, r) == q


def test_criterion_10_branch_additivity():
    for i in (1, 2, 3, 4):
        rep = lemma63_invariants(i)
        assert rep.mp_rd == (0, 2)
        assert rep.sub_rd == (0, 1) and rep.quot_rd == (0, 1)
        assert rep.additive
