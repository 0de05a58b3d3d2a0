"""Closed-form cohomology tables, graded Betti tables and their
classification, rank/degree recovery and Hilbert-series data.

A cohomology table is the 4x2 array of section/obstruction dimensions of a
sheaf, its canonical twist and their degree-c twists; positionally it *is*
the Betti table of the presenting module, which is what betti_from_cohom
reads off.

Every table built here from Euler characteristics has one layout, _table.
For an indecomposable F of type (r, d) in region R1 (d > 0) h1 vanishes for
slope reasons on F, its canonical twist F(w) and their degree-c twists
alike, and in region R3 (d < 0) h0 does.  So each entry is +-chi of one of
those four sheaves, and since the twist by c adds r to an Euler
characteristic, the two numbers h = chi(F) and hw = chi(F(w)) fix the whole
table.  The generic tables of region R2 are the d = 0 case of the h0
layout, at h = hw = 0.

The public constructors CohomTable(...), BettiTable(...) and
BettiClass(...) check every value.  A table or class derived here from
values already checked, by a shift, a suspension, a template, a readout,
a mirror, the closed-form layout, the catalog or a classifier match, is
built with _trusted instead: its validity follows from the arithmetic
that made it, and the test that rebuilds each one through the public
constructor pins that.  The public functions check their own scalar
arguments (a type, a shift, template parameters) before they build.
The classifier builds classes only: it confirms a decoded candidate from
the table's own entries, without building a template or a shifted table.
"""
from __future__ import annotations

from math import gcd
from operator import mul

from ._record import Record
from .k0 import K0Class, chi, degree, rank, tensor_omega
from .shift import Region, region


class NotReducedError(ValueError):
    """(r, d) outside the fundamental domain."""


class TableError(ValueError):
    """Malformed or unclassifiable table."""


def _pair(x, what: str) -> tuple:
    """x as a 2-tuple, or a TableError naming it."""
    try:
        a, b = x
    except (TypeError, ValueError):
        raise TableError(f"{what} must be a pair, got {x!r}") from None
    return a, b


def _iter(x, what: str):
    """An iterator over x, or a TableError naming it."""
    try:
        return iter(x)
    except TypeError:
        raise TableError(f"{what} must be iterable, got {x!r}") from None


class CohomTable(Record):
    """Rows: (h0 F, h0 Fw), (h0 F(c)w, h0 F(c)), (h1 Fw, h1 F),
    (h1 F(c), h1 F(c)w).  Both column sums agree."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, int], ...]):
        rows = tuple(_pair(row, "row") for row in _iter(rows, "rows"))
        if len(rows) != 4:
            raise TableError("need four rows")
        if any(type(v) is not int for row in rows for v in row):
            raise TableError("entries must be integers")
        if any(v < 0 for row in rows for v in row):
            raise TableError("negative entry")
        if sum(r[0] for r in rows) != sum(r[1] for r in rows):
            raise TableError("column sums differ")
        self._store(rows)

    def mirror(self) -> "CohomTable":
        """Swap columns: the table of the canonical twist."""
        return CohomTable._trusted(tuple((b, a) for a, b in self.rows))


class BettiTable(Record):
    """Finitely supported (i, j) -> count with i in {0, 1}, representing the
    complete table modulo the period-(2, 4) repetition.  Built from a
    mapping (i, j) -> count or from ((i, j), count) pairs, in which a
    repeated cell is refused; zero counts are dropped."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        cells = {}
        for item in _iter(entries.items() if hasattr(entries, "items")
                          else entries, "entries"):
            cell, v = _pair(item, "entry ((i, j), count)")
            i, j = cell = _pair(cell, "cell (i, j)")
            if type(i) is not int or type(j) is not int or type(v) is not int:
                raise TableError("indices and Betti numbers must be integers")
            if cell in cells:
                raise TableError("repeated cell")
            if v and i not in (0, 1):
                raise TableError("homological index must be 0 or 1")
            if v < 0:
                raise TableError("negative Betti number")
            cells[cell] = v
        self._store(tuple(sorted(c for c in cells.items() if c[1])))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def is_empty(self) -> bool:
        return not self.entries

    def is_balanced(self) -> bool:
        return sum(v if i == 0 else -v for (i, _), v in self.entries) == 0

    def support(self) -> list[int]:
        return sorted({j for (_, j), _ in self.entries})


def translate_betti(t: BettiTable, m: int) -> BettiTable:
    """Betti table of the internal shift by m: output(i, j) = input(i, j + m)."""
    if type(m) is not int:
        raise TableError(f"shift m must be an integer, got {m!r}")
    return BettiTable._trusted(tuple(((i, j - m), v)
                                     for (i, j), v in t.entries))


def suspend_betti(t: BettiTable) -> BettiTable:
    """Betti table of the syzygy-type flip: output(0, j) = input(1, j) and
    output(1, j) = input(0, j - 4); squares to the internal shift by -4.
    The two rows trade places, so no cells collide and each keeps its
    order."""
    e = t.entries
    return BettiTable._trusted(
        tuple(((0, j), v) for (i, j), v in e if i == 1)
        + tuple(((1, j + 4), v) for (i, j), v in e if i == 0))


def betti_from_cohom(t: CohomTable) -> BettiTable:
    """Positional readout: row k of the table is (b_{0,k}, b_{1,k+2})."""
    rows = t.rows
    return BettiTable._trusted(
        tuple(((0, k), v) for k, (v, _) in enumerate(rows) if v)
        + tuple(((1, k + 2), v) for k, (_, v) in enumerate(rows) if v))


def _table(p: tuple[int, int], h: int, hw: int) -> CohomTable:
    """The table of type p = (r, d) with chi(F) = h and chi(F(w)) = hw.
    Its column sums agree by the layout; only the signs need a check."""
    r, d = p
    if d >= 0:
        rows = ((h, hw), (hw + r, h + r), (0, 0), (0, 0))
    else:
        rows = ((0, 0), (0, 0), (-hw, -h), (-h - r, -hw - r))
    if min(map(min, rows)) < 0:
        raise TableError("negative entry")
    return CohomTable._trusted(rows)


def _type_of(p) -> tuple[int, int]:
    """p as the type (r, d), refused unless it is a pair of integers."""
    if type(p) is not tuple or len(p) != 2 or any(type(v) is not int
                                                  for v in p):
        raise TableError(f"type p must be a pair of integers (r, d), "
                         f"got {p!r}")
    return p


def cohom_rank_one(p: tuple[int, int]) -> CohomTable | None:
    """Table of the self-canonical indecomposables of type (r, d), which
    exist iff gcd(r, d) is even; None when the gcd is odd."""
    r, d = _type_of(p)
    if region(p) is Region.OUTSIDE:
        raise NotReducedError(f"{p} is not in the fundamental domain")
    if gcd(abs(r), abs(d)) % 2 == 1:
        return None
    return _table(p, d // 2, d // 2)


def cohom_rank_two(p: tuple[int, int]) -> list[tuple[CohomTable, int, str]]:
    """All tables of indecomposables of type (r, d) not fixed by the
    canonical twist, with their multiplicities and a tube tag."""
    r, d = _type_of(p)
    reg = region(p)
    if reg is Region.OUTSIDE:
        raise NotReducedError(f"{p} is not in the fundamental domain")

    if reg is Region.R2:
        if r % 2 == 1:
            socle_o = CohomTable._trusted(
                ((1, 0), (r - 1, r + 1), (1, 0), (0, 0)))
        else:
            socle_o = CohomTable._trusted(((1, 0), (r, r), (0, 1), (0, 0)))
        return [(socle_o, 1, "socle-O"), (socle_o.mirror(), 1, "socle-omega"),
                (_table(p, 0, 0), 6, "generic")]

    # "chi+" is the table whose chi(F) - chi(F(w)) has the sign of d.
    step = 1 if reg is Region.R1 else -1
    if d % 2 == 1:
        plus = _table(p, (d + step) // 2, (d - step) // 2)
        return [(plus, 4, "chi+"), (plus.mirror(), 4, "chi-")]
    diag = _table(p, d // 2, d // 2)
    if r % 2 == 1:
        plus = _table(p, d // 2 + step, d // 2 - step)
        return [(plus, 1, "chi+"), (plus.mirror(), 1, "chi-"),
                (diag, 6, "generic")]
    return [(diag, 8, "generic")]


# chi and chi.tau, where tau = tensor_omega, as coefficient vectors on
# K0Class.coords; both are linear, so each is read off its values on the six
# basis classes.
_BASIS = [K0Class(e[0], e[1:5], e[5])
          for e in (tuple(int(i == k) for i in range(6)) for k in range(6))]
_CHI = tuple(chi(e) for e in _BASIS)
_CHI_W = tuple(chi(tensor_omega(e)) for e in _BASIS)


def cohom_via_euler(cl: K0Class) -> CohomTable:
    """Table of a root class from Euler characteristics alone, valid when the
    cohomology of one side vanishes for slope reasons (regions 1 and 3)."""
    p = (rank(cl), degree(cl))
    reg = region(p)
    if reg not in (Region.R1, Region.R3):
        raise NotReducedError(f"euler method inapplicable in region {reg.name}"
                              if reg is Region.R2 else
                              f"{p} is not in the fundamental domain")
    x = cl.coords
    return _table(p, sum(map(mul, x, _CHI)), sum(map(mul, x, _CHI_W)))


# --- Betti classification -------------------------------------------------

FIRST_KIND_ODD_A = "first-kind-odd-a"
FIRST_KIND_ODD_B = "first-kind-odd-b"
FIRST_KIND_EVEN_A = "first-kind-even-a"
FIRST_KIND_EVEN_B = "first-kind-even-b"
TYPE_I = "I"
TYPE_II = "II"
TYPE_III = "III"
TYPE_IV = "IV"
TYPE_V = "V"

GENERAL_TYPES = (TYPE_I, TYPE_II, TYPE_III, TYPE_IV, TYPE_V)
FIRST_KIND_TYPES = (FIRST_KIND_ODD_A, FIRST_KIND_ODD_B,
                    FIRST_KIND_EVEN_A, FIRST_KIND_EVEN_B)


class BettiClass(Record):
    """The catalog class of template_table(kind, params) shifted by shift."""

    __slots__ = ("kind", "params", "shift")

    def __init__(self, kind: str, params: tuple[int, ...], shift: int = 0):
        _check_class(kind, params)
        if type(shift) is not int:
            raise TableError(f"shift must be an integer, got {shift!r}")
        self._store(kind, params, shift)

    def __str__(self) -> str:
        inner = ",".join(str(v) for v in self.params)
        return f"{self.kind}({inner})@{self.shift}"


# The five general shapes: their offsets over (a, b, a, b) at these cells.
_GENERAL_CELLS = ((0, 0), (0, 1), (1, 2), (1, 3))
_GENERAL_OFFSETS = {
    TYPE_I: (0, 0, 0, 0),
    TYPE_II: (1, 0, 0, 1),
    TYPE_III: (0, 1, 1, 0),
    TYPE_IV: (2, 0, 0, 2),
    TYPE_V: (0, 2, 2, 0),
}


# Inverse of _GENERAL_OFFSETS: the one general kind a set of offsets names.
_GENERAL_KIND_OF = {k: kind for kind, k in _GENERAL_OFFSETS.items()}
_FIRST_KINDS_OF_PARITY = ((FIRST_KIND_EVEN_A, FIRST_KIND_EVEN_B),
                          (FIRST_KIND_ODD_A, FIRST_KIND_ODD_B))


def _check_class(kind: str, params: tuple[int, ...]) -> None:
    """A TableError unless kind and params name a catalog class."""
    if kind not in GENERAL_TYPES and kind not in FIRST_KIND_TYPES:
        raise TableError(f"unknown kind {kind!r}")
    n = 2 if kind in GENERAL_TYPES else 1
    if type(params) is not tuple or len(params) != n or any(
            type(v) is not int for v in params):
        raise TableError(f"params of kind {kind} must be a tuple of {n} "
                         f"integers, got {params!r}")
    if n == 2:
        a, b = params
        if a < 0 or b < 0:
            raise TableError("parameters must be nonnegative")
        if kind == TYPE_I and b == 0:
            raise TableError("type I requires b != 0")
        if kind in (TYPE_IV, TYPE_V) and (b - a) % 2 == 0:
            raise TableError(f"type {kind} requires b - a odd")
    elif params[0] <= 0:
        raise TableError("first-kind rank must be positive")
    elif params[0] % 2 != (kind in (FIRST_KIND_ODD_A, FIRST_KIND_ODD_B)):
        raise TableError("rank parity")


def _first_kind_cells(kind: str, r: int) -> tuple:
    """The nonzero cells ((i, j), count) of the first-kind shape kind at
    rank r, in sorted order; the one statement of the four shapes."""
    if kind == FIRST_KIND_ODD_A:
        cells = (((0, 0), 1), ((0, 1), r - 1), ((0, 2), 1), ((1, 3), r + 1))
    elif kind == FIRST_KIND_ODD_B:
        cells = (((0, 0), r + 1), ((1, 1), 1), ((1, 2), r - 1), ((1, 3), 1))
    elif kind == FIRST_KIND_EVEN_A:
        cells = (((0, 0), 1), ((0, 1), r), ((1, 3), r), ((1, 4), 1))
    else:
        # Suspension of the even-A shape; forced by rank/degree recovery.
        cells = (((0, 0), r), ((0, 1), 1), ((1, 1), 1), ((1, 2), r))
    return tuple(c for c in cells if c[1])


def template_table(kind: str, params: tuple[int, ...]) -> BettiTable:
    """Unshifted catalog table for a classification kind, from
    _GENERAL_OFFSETS or _first_kind_cells.  Once _check_class passes,
    every cell is a nonnegative integer in sorted order, so the zero cells
    are dropped and the table is built trusted."""
    _check_class(kind, params)
    if kind in GENERAL_TYPES:
        return BettiTable._trusted(tuple(
            (cell, v + k) for cell, v, k in
            zip(_GENERAL_CELLS, params * 2, _GENERAL_OFFSETS[kind])
            if v + k))
    return BettiTable._trusted(_first_kind_cells(kind, params[0]))


def normalize_and_classify(t: BettiTable) -> BettiClass:
    """Decode a table into the one catalog class it is a shift of.

    Every catalog table's support starts at j = 0 or j = 1, so the shift
    can only be min j or min j - 1.  At each of those two shifts the
    candidates are decoded and confirmed from the shifted entries; no
    table is built.  (a, b) = (min(b00, b12), min(b01, b13)), and the
    offsets of (b00, b01, b12, b13) over (a, b, a, b) name the one general
    kind I-V that can match, by the inverse of _GENERAL_OFFSETS; those four
    cells are then the template's, so it matches when the table has no
    other cell.  r = sum_j b0j - 1, and its parity names the two
    first-kind shapes that can, compared with _first_kind_cells.  A match
    must pass _check_class, which refuses the decodes I(a, 0), IV and V
    with b - a even, and rank 0.  Exactly one candidate may match.
    """
    if t.is_empty():
        raise TableError("empty table")
    if not t.is_balanced():
        raise TableError("column sums differ")
    entries = t.entries
    r = sum(v for (i, _), v in entries if i == 0) - 1
    lo, matches = min(j for (_, j), _ in entries), []
    for m in (lo - 1, lo):
        shifted = tuple(((i, j - m), v) for (i, j), v in entries)
        e = dict(shifted)
        b00, b01 = e.get((0, 0), 0), e.get((0, 1), 0)
        b12, b13 = e.get((1, 2), 0), e.get((1, 3), 0)
        a, b = min(b00, b12), min(b01, b13)
        general = _GENERAL_KIND_OF.get((b00 - a, b01 - b, b12 - a, b13 - b))
        candidates = []
        if general is not None and len(shifted) == (
                (b00 > 0) + (b01 > 0) + (b12 > 0) + (b13 > 0)):
            candidates.append((general, (a, b)))
        for kind in _FIRST_KINDS_OF_PARITY[r % 2]:
            if _first_kind_cells(kind, r) == shifted:
                candidates.append((kind, (r,)))
        for kind, params in candidates:
            try:
                _check_class(kind, params)
            except TableError:
                continue
            matches.append(BettiClass._trusted(kind, params, m))
    if not matches:
        raise TableError("not an indecomposable table")
    if len(matches) > 1:
        raise TableError(f"ambiguous classification: {matches}")
    return matches[0]


def _signed_sums(t: BettiTable) -> dict[int, int]:
    """j -> b_{0,j} - b_{1,j}, refused unless the values total 0."""
    n: dict[int, int] = {}
    for (i, j), v in t.entries:
        n[j] = n.get(j, 0) + (v if i == 0 else -v)
    if sum(n.values()):
        raise TableError("column sums differ")
    return n


def rd_from_betti(t: BettiTable) -> tuple[int, int]:
    """Rank and degree from the signed Betti sums s_k, folded mod 4 over
    one period of the complete resolution: d = s_0 - s_2 and
    2r = (s_1 + s_2) - (s_0 + s_3), where the s_k total 0, so
    r = s_1 + s_2."""
    s = [0, 0, 0, 0]
    for j, v in _signed_sums(t).items():
        s[j % 4] += v
    return s[1] + s[2], s[0] - s[2]


class IndecCount(Record):
    """Finite(k) or a one-parameter family of a given level; base is
    "full-line" or "line-minus-infinity" for a family."""

    __slots__ = ("finite", "level", "base")

    def __init__(self, finite: int | None, level: int | None = None,
                 base: str | None = None):
        self._store(finite, level, base)


def indec_count(c: BettiClass) -> IndecCount:
    """How many indecomposables share the table of a classification."""
    if c.kind != TYPE_I:
        return IndecCount(finite=4 if c.kind in (TYPE_II, TYPE_III) else 1)
    a, b = c.params
    r, d = b - a, 2 * a
    if r % 2 == 1:
        return IndecCount(finite=6)
    if d != 0:
        return IndecCount(finite=None, level=gcd(abs(r), d) // 2,
                          base="full-line")
    return IndecCount(finite=None, level=r // 2, base="line-minus-infinity")


def hilbert(t: BettiTable):
    """(numerator Laurent polynomial, multiplicity, generator count, Ulrich?).

    The Hilbert series is numerator/(1 - t): the signed generator
    polynomial, whose coefficients total 0, divided by its factor (1 - t).
    """
    n = {j: v for j, v in _signed_sums(t).items() if v}
    if not n:
        raise TableError("not an MCM table: zero numerator")
    p: dict[int, int] = {}
    acc = 0
    for j in range(min(n), max(n) + 1):
        acc += n.get(j, 0)
        if acc:
            p[j] = acc
    e = sum(p.values())
    mu = sum(v for (i, _), v in t.entries if i == 0)
    if e <= 0:
        raise TableError("not an MCM table: nonpositive multiplicity")
    return p, e, mu, e == mu


def catalog(a_max: int, b_max: int, r_max: int):
    """Deterministic sweep of all catalog classes within parameter bounds."""
    candidates = [(kind, (a, b)) for kind in GENERAL_TYPES
                  for a in range(a_max + 1) for b in range(b_max + 1)]
    candidates += [(kind, (r,)) for kind in FIRST_KIND_TYPES
                   for r in range(1, r_max + 1)]
    out = []
    for kind, params in candidates:
        try:
            table = template_table(kind, params)
        except TableError:
            continue
        out.append((BettiClass._trusted(kind, params, 0), table))
    return out


def catalog_size(a_max: int, b_max: int, r_max: int) -> int:
    """len(catalog(a_max, b_max, r_max)), without building it: each
    general kind takes the (a, b) grid, type I less its b = 0 column and
    types IV and V only its cells with b - a odd; each rank 1..r_max has
    two first-kind shapes of its parity."""
    na, nb = max(a_max + 1, 0), max(b_max + 1, 0)
    odd = (na + 1) // 2 * (nb // 2) + na // 2 * ((nb + 1) // 2)
    return na * max(nb - 1, 0) + 2 * na * nb + 2 * odd + 2 * max(r_max, 0)
