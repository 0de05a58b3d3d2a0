import json
import random
import time
from math import gcd

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:       # test-only dependency; the property tests skip
    st = None

from ellmf import cli, tables
from ellmf.k0 import (
    K0Class, chi, degree, real_root_classes_with_rd, real_root_gamma_parts,
    rank, simple_class, tensor_omega, twist_by_c,
)
from ellmf.shift import Region, reduce_to_fundamental, region, shift_rd
from ellmf.tables import (
    BettiClass, BettiTable, CohomTable, NotReducedError, TableError,
    betti_from_cohom, catalog, cohom_rank_one, cohom_rank_two,
    cohom_via_euler, hilbert, indec_count, normalize_and_classify,
    rd_from_betti, suspend_betti, template_table, translate_betti,
)
from ellmf.tubular import tube_invariants


def T(*rows):
    return CohomTable(tuple(rows))


def B(d):
    return BettiTable(d)


def fundamental_pairs(r_max, d_max):
    for r in range(r_max + 1):
        for d in range(-d_max, d_max + 1):
            if (r, d) != (0, 0) and region((r, d)) is not Region.OUTSIDE:
                yield r, d


# --- cohomology tables ----------------------------------------------------

def test_cohom_table_balance():
    with pytest.raises(TableError):
        T((1, 0), (0, 0), (0, 0), (0, 0))
    with pytest.raises(TableError):
        T((1, 0), (0, 1), (0, 0))


def test_cohom_table_rejects_non_integers():
    # int() would make these ((1, 1), ..., (0, 0)) and pass the sum check.
    with pytest.raises(TableError, match="integers"):
        T((1.9, 1), (0, 0), (0, 0), (0, 0.9))
    with pytest.raises(TableError, match="integers"):
        T((True, 1), (0, 0), (0, 0), (0, 0))


def test_rank_one_examples():
    assert cohom_rank_one((0, 2)).rows == ((1, 1), (1, 1), (0, 0), (0, 0))
    assert cohom_rank_one((2, 0)).rows == ((0, 0), (2, 2), (0, 0), (0, 0))
    assert cohom_rank_one((1, 1)) is None
    assert cohom_rank_one((2, -6)).rows == ((0, 0), (0, 0), (3, 3), (1, 1))
    with pytest.raises(NotReducedError):
        cohom_rank_one((1, -1))
    with pytest.raises(NotReducedError):
        cohom_rank_two((1, -1))


def test_rank_two_d_odd():
    got = cohom_rank_two((0, 1))
    assert [(t.rows, m) for t, m, _ in got] == [
        (((1, 0), (0, 1), (0, 0), (0, 0)), 4),
        (((0, 1), (1, 0), (0, 0), (0, 0)), 4),
    ]


def test_rank_two_degree_zero():
    got = cohom_rank_two((1, 0))
    assert [(t.rows, m, tag) for t, m, tag in got] == [
        (((1, 0), (0, 2), (1, 0), (0, 0)), 1, "socle-O"),
        (((0, 1), (2, 0), (0, 1), (0, 0)), 1, "socle-omega"),
        (((0, 0), (1, 1), (0, 0), (0, 0)), 6, "generic"),
    ]
    got = cohom_rank_two((2, 0))
    assert [(t.rows, m, tag) for t, m, tag in got] == [
        (((1, 0), (2, 2), (0, 1), (0, 0)), 1, "socle-O"),
        (((0, 1), (2, 2), (1, 0), (0, 0)), 1, "socle-omega"),
        (((0, 0), (2, 2), (0, 0), (0, 0)), 6, "generic"),
    ]


def test_rank_two_multiplicities_sum_to_eight():
    for r, d in fundamental_pairs(6, 18):
        assert sum(m for _, m, _ in cohom_rank_two((r, d))) == 8


def test_rank_two_even_even_diagonal_is_rank_one_table():
    """At every point with d even (R2 and odd r included) the one generic
    rank-two table is self-canonical; where the gcd is even it is the
    rank-one table."""
    seen = 0
    for r, d in fundamental_pairs(6, 18):
        generic = [(t, m) for t, m, tag in cohom_rank_two((r, d))
                   if tag == "generic"]
        assert len(generic) == (d % 2 == 0), (r, d)
        for t, m in generic:
            assert t.mirror() == t
            assert m == (8 if d and r % 2 == 0 else 6), (r, d)
        if gcd(abs(r), abs(d)) % 2 == 0:
            assert [t for t, _ in generic] == [cohom_rank_one((r, d))]
            seen += 1
    assert seen > 50


def test_cohom_via_euler_examples():
    cl = K0Class(1, (1, 0, 0, 0), 0)
    assert cohom_via_euler(cl).rows == ((1, 0), (1, 2), (0, 0), (0, 0))
    cl = K0Class(1, (1, 1, 0, 0), 0)
    assert cohom_via_euler(cl).rows == ((1, 1), (2, 2), (0, 0), (0, 0))
    assert cohom_via_euler(simple_class(1, 0)).rows == (
        (1, 0), (0, 1), (0, 0), (0, 0))
    with pytest.raises(NotReducedError):
        cohom_via_euler(K0Class(1, (-1, 0, 0, 0), 0))  # (1, -1) is outside


def test_cohom_via_euler_rejects_r2():
    with pytest.raises(NotReducedError):
        cohom_via_euler(K0Class(2, (1, 1, 1, 1), -2))  # (2, 0)


def _euler_reference(cl):
    """cohom_via_euler by composing the K0 maps on each call."""
    clw, clc = tensor_omega(cl), twist_by_c(cl)
    clcw = tensor_omega(clc)
    if region((rank(cl), degree(cl))) is Region.R1:
        return T((chi(cl), chi(clw)), (chi(clcw), chi(clc)), (0, 0), (0, 0))
    return T((0, 0), (0, 0), (-chi(clw), -chi(cl)), (-chi(clc), -chi(clcw)))


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_euler_functionals_are_the_composed_maps():
    """The twist by c adds the rank to chi and to chi.tau, so those two
    functionals fix the four Euler characteristics of a table."""
    coord = st.integers(-10**6, 10**6)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(coord, st.tuples(coord, coord, coord, coord), coord)
    def check(a0, a, n):
        cl = K0Class(a0, a, n)
        clc = twist_by_c(cl)
        assert chi(clc) == chi(cl) + rank(cl)
        assert chi(tensor_omega(clc)) == chi(tensor_omega(cl)) + rank(cl)

    check()


def test_cohom_via_euler_matches_composed_maps():
    seen = 0
    for r in range(13):
        for d in range(-30, 31):
            if region((r, d)) not in (Region.R1, Region.R3):
                continue
            for cl in real_root_classes_with_rd(r, d):
                assert cohom_via_euler(cl) == _euler_reference(cl), cl
                seen += 1
    assert seen > 1000


def test_cohom_via_euler_matches_listed_tables():
    for m in range(4):
        for a0, a in real_root_gamma_parts(m):
            for n in range(-6, 7):
                cl = K0Class(a0, a, n)
                p = (rank(cl), degree(cl))
                if region(p) in (Region.R1, Region.R3):
                    listed = [t for t, _, _ in cohom_rank_two(p)]
                    assert cohom_via_euler(cl) in listed, (cl, p)


# --- Betti tables ---------------------------------------------------------

def test_betti_from_cohom():
    t = betti_from_cohom(T((1, 1), (1, 1), (0, 0), (0, 0)))
    assert t.as_dict() == {(0, 0): 1, (0, 1): 1, (1, 2): 1, (1, 3): 1}
    t = betti_from_cohom(T((1, 0), (0, 1), (0, 0), (0, 0)))
    assert t.as_dict() == {(0, 0): 1, (1, 3): 1}
    assert betti_from_cohom(T((0, 0), (0, 0), (0, 0), (0, 0))).is_empty()


def test_betti_table_rejects_non_integers():
    # int() would truncate 2.5 to 2 and balance the table.
    with pytest.raises(TableError, match="integers"):
        B({(0, 0): 2.5, (1, 2): 2})
    with pytest.raises(TableError, match="integers"):
        B({(0, 0.0): 1, (1, 2): 1})
    with pytest.raises(TableError, match="integers"):
        B({(0, 0): True, (1, 2): 1})
    with pytest.raises(TableError, match="integer"):
        translate_betti(B({(0, 0): 1}), 0.5)


def test_translate_and_suspend():
    t = B({(0, 0): 1, (1, 1): 1})
    assert translate_betti(t, -1).as_dict() == {(0, 1): 1, (1, 2): 1}
    assert suspend_betti(B({(0, 0): 1})).as_dict() == {(1, 4): 1}
    # The flip squares to the internal shift by -4.
    rng = random.Random(31)
    for _ in range(100):
        t = B({(rng.randint(0, 1), rng.randint(-5, 5)): rng.randint(1, 4)
               for _ in range(4)})
        assert suspend_betti(suspend_betti(t)) == translate_betti(t, -4)


def test_template_constraints():
    with pytest.raises(TableError):
        template_table("I", (1, 0))
    with pytest.raises(TableError):
        template_table("IV", (0, 2))
    with pytest.raises(TableError):
        template_table("first-kind-odd-a", (2,))
    with pytest.raises(TableError):
        template_table("first-kind-even-a", (3,))
    with pytest.raises(TableError):
        template_table("II", (1.0, 2))
    with pytest.raises(TableError, match="^parameters must be nonnegative$"):
        template_table("II", (-1, 2))
    with pytest.raises(TableError, match="^unknown kind 'VI'$"):
        template_table("VI", (1,))


@pytest.mark.parametrize("call,message", [
    (lambda: cohom_rank_one((2.0, 4.0)),
     r"^type p must be a pair of integers \(r, d\), got \(2\.0, 4\.0\)$"),
    (lambda: cohom_rank_one((True, 2)),
     r"^type p must be a pair of integers \(r, d\), got \(True, 2\)$"),
    (lambda: cohom_rank_two((True, 3)),
     r"^type p must be a pair of integers \(r, d\), got \(True, 3\)$"),
    (lambda: cohom_rank_two((1, 2, 3)),
     r"^type p must be a pair of integers \(r, d\), got \(1, 2, 3\)$"),
    (lambda: template_table("II", (True, 2)),
     r"^params of kind II must be a tuple of 2 integers, got \(True, 2\)$"),
    (lambda: template_table("first-kind-odd-a", (True,)),
     r"^params of kind first-kind-odd-a must be a tuple of 1 integers, "
     r"got \(True,\)$"),
    (lambda: template_table("I", (1, 2, 3)),
     r"^params of kind I must be a tuple of 2 integers, got \(1, 2, 3\)$"),
    (lambda: template_table("first-kind-even-a", 2),
     r"^params of kind first-kind-even-a must be a tuple of 1 integers, "
     r"got 2$"),
    (lambda: template_table("VI", (1, 2)), r"^unknown kind 'VI'$"),
    (lambda: translate_betti(B({(0, 0): 1}), True),
     r"^shift m must be an integer, got True$"),
    (lambda: B({5: 1}), r"^cell \(i, j\) must be a pair, got 5$"),
    (lambda: B({(1, 2, 3): 1}),
     r"^cell \(i, j\) must be a pair, got \(1, 2, 3\)$"),
    (lambda: B([((0, 0), 1, 2)]),
     r"^entry \(\(i, j\), count\) must be a pair, "
     r"got \(\(0, 0\), 1, 2\)$"),
    (lambda: B([5]), r"^entry \(\(i, j\), count\) must be a pair, "
     r"got 5$"),
    (lambda: T((1, 0), (0, 1), (0, 0), 5), r"^row must be a pair, got 5$"),
    (lambda: T((1, 0), (0, 1), (1, 2, 3), (0, 0)),
     r"^row must be a pair, got \(1, 2, 3\)$"),
])
def test_public_entry_points_name_the_bad_argument(call, message):
    """No silent coercion of bools or floats, and a wrong-length argument
    is a TableError, not an unpacking error."""
    with pytest.raises(TableError, match=message) as info:
        call()
    assert type(info.value) is TableError


def test_euler_table_keeps_its_sign_check():
    # (r, d) = (0, 1) is in R1, but chi of this class's canonical twist
    # is negative.
    cl = K0Class(0, (-1, -1, -1, 0), 2)
    assert (rank(cl), degree(cl)) == (0, 1) and chi(tensor_omega(cl)) < 0
    with pytest.raises(TableError, match="^negative entry$"):
        cohom_via_euler(cl)


def test_general_offsets_are_distinct():
    # The decoder reads the kind back off the offsets.
    rows = list(tables._GENERAL_OFFSETS.values())
    assert len(rows) == len(set(rows)) == len(tables.GENERAL_TYPES)


def test_classification_examples():
    c = normalize_and_classify(B({(0, 1): 1, (1, 2): 1}))
    assert (c.kind, c.params, c.shift) == ("III", (0, 0), 0)
    c = normalize_and_classify(B({(0, 0): 1, (1, 1): 1}))
    assert (c.kind, c.params, c.shift) == ("III", (0, 0), -1)
    c = normalize_and_classify(B({(0, 0): 1, (0, 1): 1, (1, 2): 1, (1, 3): 1}))
    assert (c.kind, c.params) == ("I", (1, 1))
    c = normalize_and_classify(B({(0, 0): 1, (0, 2): 1, (1, 3): 2}))
    assert (c.kind, c.params) == ("first-kind-odd-a", (1,))


def test_classification_rejects():
    with pytest.raises(TableError):
        normalize_and_classify(B({(0, 0): 1, (1, 5): 1}))
    with pytest.raises(TableError):
        normalize_and_classify(B({}))
    with pytest.raises(TableError):
        normalize_and_classify(B({(0, 0): 2, (1, 1): 1}))


def test_ambiguous_classification_is_table_error(monkeypatch, tmp_path,
                                                capsys):
    """Two matching candidates raise TableError, so the CLI exits 1."""
    real = tables._first_kind_cells
    # The decoder confirms I(1, 1) and, patched, first-kind-odd-a(1) as well.
    monkeypatch.setattr(tables, "_first_kind_cells", lambda kind, r:
                        template_table("I", (1, 1)).entries
                        if (kind, r) == ("first-kind-odd-a", 1)
                        else real(kind, r))
    table = B({(0, 0): 1, (0, 1): 1, (1, 2): 1, (1, 3): 1})
    with pytest.raises(TableError, match="ambiguous classification"):
        normalize_and_classify(table)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(cli.betti_to_json(table)))
    assert cli.run(["classify-betti", str(path)]) == 1
    assert "ambiguous classification" in capsys.readouterr().err


def test_classification_builds_no_table(monkeypatch):
    """The classifier confirms a decoded candidate from the table's own
    entries: with every way to build a table patched to raise, each
    catalog table at each of four shifts still classifies."""
    cases = [(c, m, translate_betti(t, -m)) for c, t in catalog(8, 8, 24)
             for m in (-5, 0, 1, 9)]

    def refuse(*args):
        raise AssertionError("the classifier built a table")

    monkeypatch.setattr(tables, "template_table", refuse)
    monkeypatch.setattr(tables, "translate_betti", refuse)
    monkeypatch.setattr(BettiTable, "_trusted", staticmethod(refuse))
    for c, m, table in cases:
        got = normalize_and_classify(table)
        assert (got.kind, got.params, got.shift) == (c.kind, c.params, m)


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_classification_round_trip_property():
    classes = catalog(8, 8, 24)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(classes), st.integers(-10**6, 10**6),
           st.booleans())
    def check(entry, m, suspend):
        c, t = entry
        table = translate_betti(t, -m)
        if suspend:
            table = suspend_betti(table)
        got = normalize_and_classify(table)
        assert translate_betti(template_table(got.kind, got.params),
                               -got.shift) == table
        if not suspend:
            assert got == BettiClass(c.kind, c.params, m)

    check()


def test_classification_ignores_support_spread():
    # Only two shifts are tried, however far apart the support lies.
    start = time.perf_counter()
    with pytest.raises(TableError):
        normalize_and_classify(B({(0, 0): 1, (1, 10**12): 1}))
    assert time.perf_counter() - start < 1.0


def test_catalog_support_starts_at_zero_or_one():
    # The decoder relies on this: a table can be a catalog table shifted
    # by m only for m = min j or m = min j - 1.
    for _, t in catalog(6, 6, 20):
        assert t.support()[0] in (0, 1)


def test_classification_matches_shift_oracle():
    # Independent oracle built from the templates alone: every catalog
    # table at every shift in a window, mapped to its class triple.
    oracle, n = {}, 0
    for c, t in catalog(6, 6, 20):
        for m in range(-4, 8):
            oracle[translate_betti(t, -m)] = (c.kind, c.params, m)
            n += 1
    assert len(oracle) == n  # no table carries two classes
    for t, triple in oracle.items():
        got = normalize_and_classify(t)
        assert (got.kind, got.params, got.shift) == triple
    # Small random tables lie inside the oracle's window, so each one
    # classifies exactly when the oracle lists it.
    rng = random.Random(47)
    hits = 0
    for _ in range(20000):
        t = B({(rng.randint(0, 1), rng.randint(-3, 7)): rng.randint(1, 4)
               for _ in range(rng.randint(1, 3))})
        if t in oracle:
            hits += 1
            got = normalize_and_classify(t)
            assert (got.kind, got.params, got.shift) == oracle[t]
        else:
            with pytest.raises(TableError):
                normalize_and_classify(t)
    assert hits > 0


def test_rd_examples():
    assert rd_from_betti(template_table("I", (1, 1))) == (0, 2)
    assert rd_from_betti(template_table("III", (0, 0))) == (0, 1)
    for r in (1, 3, 5):
        assert rd_from_betti(template_table("first-kind-odd-a", (r,))) == (r, 0)
    for r in (2, 4):
        assert rd_from_betti(template_table("first-kind-even-a", (r,))) == (r, 0)


def test_first_kind_shift_ladder():
    # The B-shapes are the one-step shifts of the A-shapes.
    for r in (1, 3):
        a = rd_from_betti(template_table("first-kind-odd-a", (r,)))
        b = rd_from_betti(template_table("first-kind-odd-b", (r,)))
        assert b == shift_rd(a, 1)
    for r in (2, 4):
        a = rd_from_betti(template_table("first-kind-even-a", (r,)))
        b = rd_from_betti(template_table("first-kind-even-b", (r,)))
        assert b == shift_rd(a, 1)


def test_catalog_round_trip():
    for c, t in catalog(4, 4, 6):
        got = normalize_and_classify(t)
        assert (got.kind, got.params, got.shift) == (c.kind, c.params, 0)
        r, d = rd_from_betti(t)
        assert (r, d) != (0, 0)


# The kind of a class's suspension; the params are kept.
SUSPENSION_PARTNER = {
    "I": "I", "II": "III", "III": "II", "IV": "V", "V": "IV",
    "first-kind-odd-a": "first-kind-odd-b",
    "first-kind-odd-b": "first-kind-odd-a",
    "first-kind-even-a": "first-kind-even-b",
    "first-kind-even-b": "first-kind-even-a",
}


def test_catalog_closure_under_suspension():
    for c, t in catalog(3, 3, 5):
        sus = suspend_betti(t)
        got = normalize_and_classify(sus)
        r0, d0 = rd_from_betti(t)
        r1, d1 = rd_from_betti(sus)
        # The flip negates the class.
        assert (r1, d1) == (-r0, -d0)
        assert (got.kind, got.params) in {(cc.kind, cc.params)
                                          for cc, _ in catalog(5, 5, 7)}
        assert (got.kind, got.params) == (SUSPENSION_PARTNER[c.kind],
                                          c.params), c


def test_catalog_both_ways_with_counts():
    """Over r <= 10, |d| <= 30: every class of catalog(4, 4, 8) is the
    class of a readout of cohom_rank_one or cohom_rank_two, or of its
    suspension; each finite indec_count of a readout is the multiplicity
    cohom_rank_two gives its table, and each family's level is the
    rank-one tube length of tube_invariants."""
    seen, finite, families = set(), 0, 0
    for p in fundamental_pairs(10, 30):
        readouts = [(t, mult) for t, mult, _ in cohom_rank_two(p)]
        one = cohom_rank_one(p)
        if one is not None:
            readouts.append((one, None))
        for t, mult in readouts:
            bt = betti_from_cohom(t)
            if bt.is_empty():
                continue
            count = indec_count(normalize_and_classify(bt))
            if count.finite is not None:
                assert count.finite == mult, (p, t)
                finite += 1
            else:
                assert count.level == tube_invariants(p).rank_one_length, p
                families += 1
            for u in (bt, suspend_betti(bt)):
                c = normalize_and_classify(u)
                seen.add((c.kind, c.params))
    assert {(c.kind, c.params) for c, _ in catalog(4, 4, 8)} <= seen
    assert finite and families


def test_indec_counts():
    assert indec_count(BettiClass("II", (0, 1))).finite == 4
    assert indec_count(BettiClass("I", (1, 2))).finite == 6
    fam = indec_count(BettiClass("I", (1, 1)))
    assert fam.finite is None and fam.level == 1 and fam.base == "full-line"
    fam = indec_count(BettiClass("I", (0, 2)))
    assert fam.finite is None and fam.level == 1
    assert fam.base == "line-minus-infinity"
    assert indec_count(BettiClass("IV", (0, 1))).finite == 1
    assert indec_count(BettiClass("first-kind-odd-a", (3,))).finite == 1


def test_hilbert_examples():
    p, e, mu, ulrich = hilbert(template_table("III", (0, 0)))
    assert (p, e, mu, ulrich) == ({1: 1}, 1, 1, True)
    _, e, mu, ulrich = hilbert(template_table("I", (1, 1)))
    assert (e, mu, ulrich) == (4, 2, False)
    for r in (1, 3, 7):
        _, e, mu, ulrich = hilbert(template_table("first-kind-odd-a", (r,)))
        assert (e, mu, ulrich) == (2 * r + 2, r + 1, False)


def test_unbalanced_table_rejected():
    t = B({(0, 0): 2, (0, 1): 1, (1, 2): 1, (1, 3): 1})
    assert not t.is_balanced()
    for f in (rd_from_betti, hilbert, normalize_and_classify):
        with pytest.raises(TableError, match="^column sums differ$"):
            f(t)


def test_hilbert_rejects_non_mcm():
    # Balanced but with nonpositive multiplicity.
    with pytest.raises(TableError):
        hilbert(B({(1, 0): 1, (0, 1): 1}))
    with pytest.raises(TableError):
        hilbert(B({(0, 0): 1, (1, 1): 2}))
    with pytest.raises(TableError, match="zero numerator"):
        hilbert(B({(0, 0): 1, (1, 0): 1}))



def test_catalog_size_is_catalog_length():
    for a_max in range(-1, 5):
        for b_max in range(-1, 5):
            for r_max in (-1, 0, 1, 2, 5):
                assert tables.catalog_size(a_max, b_max, r_max) == len(
                    catalog(a_max, b_max, r_max))


# --- trusted construction ---------------------------------------------------

def _assert_sound(t):
    """A table the library built trusted equals its validated rebuild, and
    every index and count in it is exactly an int."""
    if type(t) is BettiTable:
        assert BettiTable(t.entries) == t, t
        values = [x for (i, j), v in t.entries for x in (i, j, v)]
    else:
        assert type(t) is CohomTable and CohomTable(t.rows) == t, t
        values = [v for row in t.rows for v in row]
    assert all(type(v) is int for v in values), t


def _assert_sound_class(c):
    """A class the library built trusted equals its validated rebuild."""
    assert type(c) is BettiClass and BettiClass(c.kind, c.params,
                                                c.shift) == c, c


def test_trusted_tables_equal_their_validated_rebuilds(monkeypatch):
    """Every table built here through _trusted: translates, suspensions,
    templates, readouts, mirrors and the Euler and closed-form tables; and
    every class that the catalog and the classifier build through
    _trusted.  The templates and translates are those of the catalog and
    of this test, which classifies each shifted catalog table, its
    suspension and each readout of a table and its mirror, and rebuilds
    each class as its template shifted back; the classifier builds none."""
    seen = dict.fromkeys(("template_table", "translate_betti", "catalog",
                          "cohom", "euler"), 0)
    for name in ("template_table", "translate_betti"):
        def checked(*args, name=name, real=getattr(tables, name)):
            t = real(*args)
            _assert_sound(t)
            seen[name] += 1
            return t

        monkeypatch.setattr(tables, name, checked)

    def classify(t):
        built = seen["template_table"], seen["translate_betti"]
        got = normalize_and_classify(t)
        assert (seen["template_table"], seen["translate_betti"]) == built
        _assert_sound_class(got)
        assert tables.translate_betti(
            tables.template_table(got.kind, got.params), -got.shift) == t
        return got

    def sound_readout(t):
        for u in (t, t.mirror()):
            _assert_sound(u)
            b = betti_from_cohom(u)
            _assert_sound(b)
            if not b.is_empty():
                classify(b)

    classes = catalog(6, 6, 12)
    for c, t in classes:
        _assert_sound_class(c)
        for m in range(-3, 4):
            shifted = tables.translate_betti(t, m)
            suspended = suspend_betti(shifted)
            _assert_sound(suspended)
            classify(suspended)
            got = classify(shifted)
            assert (got.kind, got.params, got.shift) == (c.kind, c.params, -m)
            seen["catalog"] += 1
    for r, d in fundamental_pairs(12, 30):
        one = cohom_rank_one((r, d))
        for t in ([one] if one is not None else []) + [
                t for t, _, _ in cohom_rank_two((r, d))]:
            sound_readout(t)
            seen["cohom"] += 1
        if region((r, d)) in (Region.R1, Region.R3):
            for cl in real_root_classes_with_rd(r, d):
                sound_readout(cohom_via_euler(cl))
                seen["euler"] += 1
    assert seen["catalog"] == 7 * len(classes) and seen["cohom"] > 1000, seen
    assert seen["euler"] > 1000, seen
    assert seen["template_table"] > 10000, seen
    assert seen["translate_betti"] > 10000, seen
