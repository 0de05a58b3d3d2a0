"""Graded matrix factorizations of the quartic X·Y·(X-Y)·(X-lambda·Y):
constructors, symbolic verification, reduction to minimal form and Betti
readout.  All arithmetic is exact over the lambda function field.  A
passing verification of entries polynomial in lambda holds for every
admissible parameter value.  reduce_mf pivots on +-1 first, so a cone's
reduction holds wherever the point is defined (see reduce_mf).

Verification composes A*B, and B*A only when A*B has a defect or A is not
square: over the integral domain Q(lambda)[X, Y], A*B = f*I with f != 0
gives det A * det B = f^n != 0, so B = f*A^-1 over the fraction field and
B*A = f*I follows.  Each factorization caches its certificate, so checking
the same object twice composes once.

Two constructions store an ok certificate when they build; any other
factorization, a copy included, gets the full check on first use.
- cone(M, N, phi, psi), which builds every mf_cone and direct_sum: when
  M and N share f, pass verification and are square, and phi and psi are
  homogeneous, its A*B is f*I in both diagonal blocks and 0 in the upper
  right one.  So only the lower left block phi*B_M + A_N*psi is formed;
  it is 0 exactly when (phi, psi) is a chain map, and B*A follows as
  above.
- specialize, twist and syzygy hold the certificate of their source when
  it passes, computed then if still pending, and their own f is nonzero.
  Each keeps A*B = f*I exactly: specialization is a ring homomorphism on
  the coefficients wherever no entry has a pole (specialize raises at
  one), and it only drops terms, so twists and homogeneity carry over and
  a nonzero f keeps its degree; a twist changes no entry and no degree
  difference; and the syzygy (B, A(deg f)) satisfies B*A = f*I by the
  argument above, or by its direct check when A is not square.  The guard
  on f is needed because a specialized f can vanish: scaling B by
  lambda - 2 and f by the same factor verifies, while at lambda = 2 the
  full check reports f is zero.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from functools import cached_property

from ._record import Record
from .poly import UNIT, BivariatePoly, X, Y, dot
from .qlambda import LAMBDA, MINUS_ONE, ONE, ZERO, Scalar


# The quartic F, its four ordered linear factors LINEAR, and the
# quarter-derivatives FX = f_x/4 and FY = f_y/4, so that F = X*FX + Y*FY,
# whose cofactors f_x/Y and f_y/X follow from the product rule on
# F = L1*L2*L3*L4; built once, and every constructor below is a product of
# them.
L1, L2 = X, Y
L3 = X - Y
L4 = X - Y.scale(LAMBDA)
L34 = L3 * L4
F = L1 * L2 * L34
_QUARTER = Scalar.of(Fraction(1, 4))
FX_OVER_Y = (L34 + X * (L3 + L4)).scale(_QUARTER)
FY_OVER_X = (L34 - Y * (L4 + L3.scale(LAMBDA))).scale(_QUARTER)
FX = Y * FX_OVER_Y
FY = X * FY_OVER_X
LINEAR = (L1, L2, L3, L4)


class GradedMatrix(Record):
    """Matrix over the bivariate ring with twist data: row i is the summand
    S(-u_i) of the target, column j the summand S(-v_j) of the source, so a
    nonzero entry (i, j) must be homogeneous of degree v_j - u_i."""

    __slots__ = ("entries", "row_twists", "col_twists")

    def __init__(self, entries, row_twists, col_twists):
        entries = tuple(tuple(row) for row in entries)
        row_twists, col_twists = tuple(row_twists), tuple(col_twists)
        if len(entries) != len(row_twists):
            raise ValueError("row count mismatch")
        for row in entries:
            if len(row) != len(col_twists):
                raise ValueError("column count mismatch")
        self._store(entries, row_twists, col_twists)

    @property
    def nrows(self) -> int:
        return len(self.row_twists)

    @property
    def ncols(self) -> int:
        return len(self.col_twists)

    def entry(self, i: int, j: int) -> BivariatePoly:
        return self.entries[i][j]

    def homogeneity_defects(self):
        """Cells whose entry is not homogeneous of the forced degree."""
        bad = []
        for i, u in enumerate(self.row_twists):
            for j, v in enumerate(self.col_twists):
                e = self.entries[i][j]
                if not e.is_zero() and not e.is_homogeneous_of(v - u):
                    bad.append((i, j))
        return bad

    def compose(self, other: "GradedMatrix") -> "GradedMatrix":
        if self.col_twists != other.row_twists:
            raise ValueError("twist mismatch in composition")
        # With no inner rows zip would yield no columns; each entry is then
        # dot(()), the zero polynomial.
        cols = (tuple(zip(*other.entries)) if other.entries
                else ((),) * other.ncols)
        rows = tuple(tuple(dot(zip(row, col)) for col in cols)
                     for row in self.entries)
        return GradedMatrix._trusted(rows, self.row_twists, other.col_twists)

    def twist(self, k: int) -> "GradedMatrix":
        """Tensor with S(-k): shifts both twist vectors by k, an int."""
        if type(k) is not int:
            raise ValueError(f"twist k must be an integer, got {k!r}")
        return GradedMatrix._trusted(self.entries,
                                     tuple(u + k for u in self.row_twists),
                                     tuple(v + k for v in self.col_twists))

    def _map(self, fn) -> "GradedMatrix":
        """fn applied to every entry, twists kept."""
        return GradedMatrix._trusted(tuple(tuple(map(fn, row))
                                           for row in self.entries),
                                     self.row_twists, self.col_twists)

    def minor(self, i: int, j: int) -> "GradedMatrix":
        """Drop row i and column j together with their twists."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError("minor index out of range")
        return GradedMatrix._trusted(
            tuple(row[:j] + row[j + 1:]
                  for r, row in enumerate(self.entries) if r != i),
            self.row_twists[:i] + self.row_twists[i + 1:],
            self.col_twists[:j] + self.col_twists[j + 1:])

    def schur_complement(self, i: int, j: int) -> "GradedMatrix":
        """Cancel the unit u at (i, j): the (i, j) minor minus
        (column j) * u^-1 * (row i).  Only cells of the minor are formed,
        and a row whose column-j entry is zero is kept as it is."""
        minus_inv = -self.entries[i][j].terms[0][1].inverse()
        m = self.minor(i, j)
        top = self.entries[i][:j] + self.entries[i][j + 1:]
        col = (row[j] for r, row in enumerate(self.entries) if r != i)
        rows = []
        for row, c in zip(m.entries, col):
            if not c.is_zero():
                coef = c.scale(minus_inv)
                row = tuple(dot(((a, UNIT), (coef, b)))
                            for a, b in zip(row, top))
            rows.append(row)
        return GradedMatrix._trusted(tuple(rows), m.row_twists, m.col_twists)


def block_lower(top_left: GradedMatrix, bottom_left: GradedMatrix,
                bottom_right: GradedMatrix) -> GradedMatrix:
    """[[TL, 0], [BL, BR]] with the twist vectors concatenated."""
    if bottom_left.row_twists != bottom_right.row_twists:
        raise ValueError("bottom row twists disagree")
    if bottom_left.col_twists != top_left.col_twists:
        raise ValueError("left column twists disagree")
    z = BivariatePoly.zero()
    rows = [row + (z,) * bottom_right.ncols for row in top_left.entries]
    rows += [bl + br for bl, br in zip(bottom_left.entries,
                                       bottom_right.entries)]
    return GradedMatrix._trusted(tuple(rows),
                                 top_left.row_twists + bottom_right.row_twists,
                                 top_left.col_twists + bottom_right.col_twists)


def _specializer(value):
    """p -> p.specialize(value), computed once per polynomial object; the
    first pole raises where entry-by-entry specialization would."""
    done: dict[int, BivariatePoly] = {}

    def at(p: BivariatePoly) -> BivariatePoly:
        s = done.get(id(p))
        if s is None:
            s = done[id(p)] = p.specialize(value)
        return s
    return at


class Certificate(Record):
    """Outcome of verify_mf; failures are (label, i, j, defect), each
    printed by failure_text, and ok means there are none."""

    __slots__ = ("failures",)

    @property
    def ok(self) -> bool:
        return not self.failures


class MatrixFactorization(Record):
    """Candidate factorization (A, B) of f, twists included.  The object
    and every field under it are immutable, so its certificate (see
    verify_mf) depends on its value alone: it is cached on this object, or
    stored there by the cone or construction that built it."""

    __slots__ = ("A", "B", "f", "__dict__")

    def specialize(self, value) -> "MatrixFactorization":
        """Each distinct entry object is specialized once: a cone shares
        its KST blocks and chain-map entries between cells.  Holds self's
        certificate (see the module docstring)."""
        at = _specializer(value)
        return self._derive(self.A._map(at), self.B._map(at), at(self.f))

    def twist(self, k: int) -> "MatrixFactorization":
        """(A(k), B(k)): both matrices tensored with S(-k), k an int.
        Holds self's certificate (see the module docstring)."""
        return self._derive(self.A.twist(k), self.B.twist(k), self.f)

    def syzygy(self) -> "MatrixFactorization":
        """(B, A(deg f)): the next step of the periodic resolution.
        Holds self's certificate (see the module docstring)."""
        deg = self.f.total_degree()
        if deg is None:
            raise ValueError("f is zero")
        return self._derive(self.B, self.A.twist(deg), self.f)

    def _derive(self, A, B, f) -> "MatrixFactorization":
        """(A, B) of f, holding self's certificate when it passes and f is
        nonzero."""
        m = MatrixFactorization(A, B, f)
        if self._certificate.ok and not f.is_zero():
            m.__dict__["_certificate"] = self._certificate
        return m

    @cached_property
    def _certificate(self) -> Certificate:
        """The Certificate of verify_mf by the full check, computed on
        first use unless a construction stored it."""
        fails = []
        A, B, f = self.A, self.B, self.f
        deg = f.total_degree()
        if A.col_twists != B.row_twists:
            fails.append(("twists", -1, -1, "A col twists != B row twists"))
        if deg is None:
            fails.append(("f", -1, -1, "f is zero"))
        elif B.col_twists != tuple(u + deg for u in A.row_twists):
            fails.append(("twists", -1, -1,
                          "B col twists != A row twists + deg f"))
        for label, g in (("A", A), ("B", B)):
            for i, j in g.homogeneity_defects():
                fails.append((f"{label}-homogeneity", i, j, g.entry(i, j)))
        if fails:
            return Certificate(tuple(fails))
        _product_defects("A*B", A.compose(B), f, fails)
        if fails or A.nrows != A.ncols:
            # For B*A the source copy of the factorization is twisted one
            # period down, hence the shift by deg f.
            _product_defects("B*A", B.compose(A.twist(deg)), f, fails)
        return Certificate(tuple(fails))


def cone(M: MatrixFactorization, N: MatrixFactorization, phi: GradedMatrix,
         psi: GradedMatrix) -> MatrixFactorization:
    """The factorization ([[A_M, 0], [phi, A_N]], [[B_M, 0], [psi, B_N]])
    of M's f, holding an ok certificate when its parts give one (see the
    module docstring).  Raises ValueError if a map's twists do not fit."""
    c = MatrixFactorization(block_lower(M.A, phi, N.A),
                            block_lower(M.B, psi, N.B), M.f)
    if _cone_certifies(M, N, phi, psi):
        c.__dict__["_certificate"] = Certificate(())
    return c


def direct_sum(M: MatrixFactorization,
               N: MatrixFactorization) -> MatrixFactorization:
    """M + N, block diagonal: the cone with zero maps."""
    return cone(M, N, _zeros(N.A.row_twists, M.A.col_twists),
                _zeros(N.B.row_twists, M.B.col_twists))


def _zeros(row_twists, col_twists) -> GradedMatrix:
    z = BivariatePoly.zero()
    return GradedMatrix._trusted(((z,) * len(col_twists),) * len(row_twists),
                                 row_twists, col_twists)


def _cone_certifies(M, N, phi, psi) -> bool:
    """Whether the cone of these parts verifies by its chain-map block
    alone (see the module docstring)."""
    if M.f != N.f or M.A.nrows != M.A.ncols or N.A.nrows != N.A.ncols:
        return False
    if not (M._certificate.ok and N._certificate.ok):
        return False
    if phi.homogeneity_defects() or psi.homogeneity_defects():
        return False
    # Row i of [phi | A_N] against column j of [B_M; psi].
    cols = [b + p for b, p in zip(zip(*M.B.entries), zip(*psi.entries))]
    return all(dot(zip(p + a, c)).is_zero()
               for p, a in zip(phi.entries, N.A.entries) for c in cols)


def defect_text(defect) -> str:
    """A defect as `mf verify` prints it, in text and in json.  A defect
    with an integer past Python's int-to-str digit limit prints as a
    placeholder naming the limit."""
    try:
        return str(defect)
    except ValueError:
        return ("<defect not printed: a coefficient has more than "
                f"{sys.get_int_max_str_digits()} digits>")


def failure_text(label: str, i: int, j: int, defect) -> str:
    """One failure as `mf verify` prints it: `A*B (0,0): <defect>`."""
    return f"{label} ({i},{j}): {defect_text(defect)}"


def _product_defects(label, prod: GradedMatrix, f: BivariatePoly,
                     fails: list) -> None:
    """Append (label, i, j, entry - f*delta_ij) for each wrong entry of
    prod.  Entries are canonical, so equality is exact and a defect is
    built only on a mismatch."""
    zero = BivariatePoly.zero()
    for i, row in enumerate(prod.entries):
        for j, e in enumerate(row):
            want = f if i == j else zero
            if e != want:
                fails.append((label, i, j, e - want))


class PointP1(Record):
    """Projective point [p0 : p1], stored in canonical form: p1 = 1, or
    (p0, p1) = (1, 0)."""

    __slots__ = ("p0", "p1")

    def __init__(self, p0, p1):
        p0, p1 = Scalar.of(p0), Scalar.of(p1)
        if not p0 and not p1:
            raise ValueError("(0, 0) is not a projective point")
        if p1:
            p0, p1 = p0 / p1, ONE
        else:
            p0 = ONE
        self._store(p0, p1)


def verify_mf(m: MatrixFactorization) -> Certificate:
    """The certificate of m: both product identities, twist bookkeeping
    and homogeneity, every defect collected instead of raised.  It is
    computed once per object and cached there, unless the construction
    that built m stored it (see the module docstring)."""
    return m._certificate


def mf_linear(i: int) -> MatrixFactorization:
    """The 1x1 factorization (l_i, f/l_i) presenting the module cut out by
    the i-th linear factor; f/l_i is the product of the other three."""
    if type(i) is not int:
        raise ValueError(f"index i must be an integer, got {i!r}")
    if i not in (1, 2, 3, 4):
        raise ValueError("index must be 1..4")
    a, b, c = (lj for j, lj in enumerate(LINEAR, 1) if j != i)
    A = GradedMatrix(((LINEAR[i - 1],),), (0,), (1,))
    B = GradedMatrix(((a * b * c,),), (1,), (4,))
    return MatrixFactorization(A, B, F)


# The factorization presenting the stable residue field, built once from
# the quarter-derivatives via f = X f_x + Y f_y.
KST = MatrixFactorization(
    GradedMatrix(((X, Y), (-FY, FX)), (0, -2), (1, 1)),
    GradedMatrix(((FX, -Y), (FY, X)), (1, 1), (4, 2)), F)


def _chain_maps(s: Scalar, t: Scalar):
    """The chain maps from the suspension of KST to its twist at [s : t],
    linear in (s, t): phi = [[s, t], [s*f_x/Y, -t*f_y/X]] and
    psi = [[-t*f_y/X, -t], [-s*f_x/Y, s]]."""
    fx, fy = FX_OVER_Y.scale(s), FY_OVER_X.scale(-t)
    c_s, c_t = (BivariatePoly.monomial(0, 0, v) for v in (s, t))
    return (GradedMatrix(((c_s, c_t), (fx, fy)), (2, 0), (2, 2)),
            GradedMatrix(((fy, -c_t), (-fx, c_s)), (3, 3), (5, 3)))


# (phi0, psi0, phiinf, psiinf): the chain maps of the pencil at [0 : 1] and
# at [1 : 0].  The map at [p0 : p1] is p1*(phi0, psi0) + p0*(phiinf, psiinf),
# whose cone realizes the degree-two skyscraper there.
PHI_PSI = (*_chain_maps(ZERO, ONE), *_chain_maps(ONE, ZERO))
# The parts every cone glues, the suspended KST and its twist; built once,
# each holding KST's certificate, which is checked once per process.
KST1, KST2 = KST.twist(1), KST.twist(2)


def mf_cone(p: PointP1) -> MatrixFactorization:
    """4x4 cone factorization over the point p = [p0 : p1], gluing the
    suspended residue-field factorization KST(1) to its twist KST(2) along
    -(phi_p, psi_p); the pencil is linear in the point, so the negated maps
    are the pencil at (-p0, -p1)."""
    return cone(KST1, KST2, *_chain_maps(-p.p0, -p.p1))


def mf_Mp_reduced(p: PointP1) -> MatrixFactorization:
    """Minimal 2x2 factorization of the degree-two skyscraper at p, with
    the cofactors f/XY = l3 l4, f/X = Y l3 l4 and f/Y = X l3 l4."""
    if p.p1:
        f_over_x = Y * L34
        a00 = X - Y.scale(p.p0)
        a01 = BivariatePoly.monomial(0, 2)
        a10 = L34.scale(-p.p0)
        A = GradedMatrix(((a00, a01), (a10, f_over_x)), (1, 0), (2, 3))
        B = GradedMatrix(((f_over_x, -a01), (-a10, a00)),
                         (2, 3), (5, 4))
    else:
        f_over_y = X * L34
        xsq = BivariatePoly.monomial(2, 0)
        A = GradedMatrix(((Y, xsq), (BivariatePoly.zero(), f_over_y)),
                         (1, 0), (2, 3))
        B = GradedMatrix(((f_over_y, -xsq), (BivariatePoly.zero(), Y)),
                         (2, 3), (5, 4))
    return MatrixFactorization(A, B, F)


# --- reduction to minimal form -------------------------------------------

def _find_scalar(g: GradedMatrix):
    """The pivot of reduce_mf (see there), or None if g has no unit."""
    hit, tier = None, 3
    for i, row in enumerate(g.entries):
        for j, e in enumerate(row):
            if e.is_scalar():
                c = e.terms[0][1]
                if c in (ONE, MINUS_ONE):
                    return i, j
                t = 1 if c.is_rational() else 2
                if t < tier:
                    hit, tier = (i, j), t
    return hit


def reduce_mf(m: MatrixFactorization) -> MatrixFactorization:
    """Strip unit pivots until no scalar entries remain; the result is the
    minimal factorization in the same stable class.

    Cancelling a unit u of M, with N the partner whose rows follow M's
    columns, is exact without any base change on N.  Write, up to
    reordering, M = [[u, r], [c, M0]] and N = [[*, n], [*, N0]].  Then
    M*N = f*I gives u*n + r*N0 = 0, so n = -u^-1*r*N0 and
    (M0 - c*u^-1*r)*N0 = f*I (N*M gives the other order alike): the
    reduced M is the Schur complement and its partner is the minor N0,
    twists included.
    The units of A are exhausted first, then those of B; a B step only
    deletes rows and columns of A, so it never creates a unit there.
    The input must pass verification; its cached certificate is read, so
    an input verified before is not checked again.

    The pivot is the first unit equal to +-1, else the first rational
    constant, else the first unit, each in row-major order.  Every cone
    has a +-1 in A (-p1, or -p0 at [1 : 0]) and in B, so it reduces
    without division and the result specializes wherever p0 is defined:
    the case that remains is a pole of p0, as at [1 : lambda - 2] with
    lambda = 2.
    On other input a pivot that depends on lambda can vanish at an
    admissible value, so there the result holds for generic lambda.
    """
    cert = m._certificate
    if not cert.ok:
        raise ValueError("input fails verification: "
                         + failure_text(*cert.failures[0]))
    A, B = m.A, m.B
    while (hit := _find_scalar(A)) is not None:
        A, B = A.schur_complement(*hit), B.minor(hit[1], hit[0])
    while (hit := _find_scalar(B)) is not None:
        B, A = B.schur_complement(*hit), A.minor(hit[1], hit[0])
    return MatrixFactorization(A, B, m.f)


def is_minimal(m: MatrixFactorization) -> bool:
    return _find_scalar(m.A) is None and _find_scalar(m.B) is None


def betti_of_mf(m: MatrixFactorization) -> BettiTable:
    """Betti numbers of the presented module, read off the twist vectors of
    a minimal factorization."""
    from .tables import BettiTable
    if not is_minimal(m):
        raise ValueError("reduce first: factorization has unit entries")
    d: dict[tuple[int, int], int] = {}
    for u in m.A.row_twists:
        d[(0, u)] = d.get((0, u), 0) + 1
    for v in m.A.col_twists:
        d[(1, v)] = d.get((1, v), 0) + 1
    return BettiTable(d)


BRANCH_POINTS = (PointP1(Scalar.of(0), ONE), PointP1(ONE, Scalar.of(0)),
                 PointP1(ONE, ONE), PointP1(LAMBDA, ONE))


class BranchReport(Record):
    __slots__ = ("index", "mp_rd", "sub_rd", "quot_rd", "additive")


def lemma63_invariants(i: int) -> BranchReport:
    """(rank, degree) bookkeeping for the degree-two skyscraper at the i-th
    branch point against its two length-one pieces."""
    from .tables import rd_from_betti
    m = mf_linear(i)
    mp_rd, sub_rd, quot_rd = (
        rd_from_betti(betti_of_mf(x))
        for x in (mf_Mp_reduced(BRANCH_POINTS[i - 1]), m.twist(1),
                  m.syzygy().twist(-1)))
    additive = all(a == b + c for a, b, c in zip(mp_rd, sub_rd, quot_rd))
    return BranchReport(i, mp_rd, sub_rd, quot_rd, additive)
