"""Grothendieck lattice of the genus-one weighted projective line with four
weight-2 points.

Classes are integer vectors in the basis (eps0, eps1..eps4, delta), where
eps0 = [O], eps_i = [S_{i,1}] is the simple torsion sheaf with a nonzero
section twisted once, and delta = [S_x] for an ordinary point x.  The rank,
degree and Euler-characteristic functionals, the canonical-twist involution,
the Euler pairing and the affine-D4 root classification all live here.
"""
from __future__ import annotations

from enum import Enum
from itertools import product

from ._record import Record


class K0Class(Record):
    """Integer vector (a0; a1..a4; n) in the basis (eps0, eps1..eps4, delta)."""

    __slots__ = ("a0", "a", "n")

    def __init__(self, a0: int, a: tuple[int, int, int, int], n: int):
        a = tuple(a)
        if any(type(v) is not int for v in (a0, *a, n)):
            raise TypeError("coordinates must be integers")
        if len(a) != 4:
            raise ValueError("need exactly four eps_i coefficients")
        self._store(a0, a, n)

    @property
    def coords(self) -> tuple[int, int, int, int, int, int]:
        return (self.a0, *self.a, self.n)

    def __add__(self, other: "K0Class") -> "K0Class":
        return K0Class(self.a0 + other.a0,
                       tuple(x + y for x, y in zip(self.a, other.a)),
                       self.n + other.n)

    def __sub__(self, other: "K0Class") -> "K0Class":
        return self + (-other)

    def __neg__(self) -> "K0Class":
        return K0Class(-self.a0, tuple(-x for x in self.a), -self.n)

    def __rmul__(self, k: int) -> "K0Class":
        return K0Class(k * self.a0, tuple(k * x for x in self.a), k * self.n)

    def is_zero(self) -> bool:
        return self.a0 == 0 and self.n == 0 and all(x == 0 for x in self.a)


ZERO = K0Class(0, (0, 0, 0, 0), 0)
STRUCTURE_SHEAF = K0Class(1, (0, 0, 0, 0), 0)          # [O]
DELTA = K0Class(0, (0, 0, 0, 0), 1)                    # [S_x], x ordinary


def simple_class(i: int, j: int) -> K0Class:
    """Class of the simple torsion sheaf S_{i,j} over the i-th special point.

    The tube has rank two, so only j mod 2 matters: [S_{i,1}] = eps_i and
    [S_{i,0}] = delta - eps_i.  Both indices are ints.
    """
    for name, v in (("i", i), ("j", j)):
        if type(v) is not int:
            raise ValueError(
                f"special point index {name} must be an integer, got {v!r}")
    if i not in (1, 2, 3, 4):
        raise ValueError("special point index must be 1..4")
    e = tuple(1 if k == i - 1 else 0 for k in range(4))
    if j % 2 == 1:
        return K0Class(0, e, 0)
    return K0Class(0, tuple(-v for v in e), 1)


def rank(cl: K0Class) -> int:
    return cl.a0


def degree(cl: K0Class) -> int:
    return sum(cl.a) + 2 * cl.n


def chi(cl: K0Class) -> int:
    return cl.a0 + cl.n


def slope(cl: K0Class) -> Fraction | None:
    """deg/rk as a reduced Fraction, or None for rank 0: a torsion class
    (slope infinity) and the zero-type classes alike."""
    from fractions import Fraction
    r = rank(cl)
    return Fraction(degree(cl), r) if r else None


def invariants(cl: K0Class):
    """(rank, degree, Euler characteristic, slope) of a class."""
    return rank(cl), degree(cl), chi(cl), slope(cl)


def tensor_omega(cl: K0Class) -> K0Class:
    """The involution induced by twisting with the canonical bundle.

    Determined by tau(eps0) = eps0 + sum eps_i - 2 delta, tau(eps_i) =
    delta - eps_i and tau(delta) = delta.
    """
    a0 = cl.a0
    return K0Class(a0,
                   tuple(a0 - x for x in cl.a),
                   -2 * a0 + sum(cl.a) + cl.n)


OMEGA = tensor_omega(STRUCTURE_SHEAF)                  # [omega]


def twist_by_c(cl: K0Class) -> K0Class:
    """K0 action of tensoring with O(c): adds rank to the delta coefficient."""
    return K0Class(cl.a0, cl.a, cl.n + cl.a0)


class LVector(Record):
    """Element of the Picard group in generators x1..x4, c with 2 x_i = c."""

    __slots__ = ("x", "c")

    def normal_form(self) -> "LVector":
        """Absorb the relations 2 x_i = c so every x-coefficient is 0 or 1."""
        xs = []
        extra = 0
        for v in self.x:
            q, r = divmod(v, 2)
            xs.append(r)
            extra += q
        return LVector(tuple(xs), self.c + extra)


def line_bundle_class(v: LVector) -> K0Class:
    """Class of the line bundle O(v) in the (eps, delta) basis."""
    nf = v.normal_form()
    return K0Class(1, nf.x, nf.c)


# Euler pairing.  The Gram matrix is hardcoded from the tilting collection
# (O, O(c), S_{1,0}, .., S_{4,0}): unit upper-triangular with
# <O, O(c)> = 2, <O, S_{i,0}> = <O(c), S_{i,0}> = 1 and orthogonal simples.

def _tilting_coords(cl: K0Class) -> tuple[int, ...]:
    s = sum(cl.a)
    c1 = cl.a0 - cl.n - s
    c2 = cl.n + s
    return (c1, c2, -cl.a[0], -cl.a[1], -cl.a[2], -cl.a[3])


def euler_pairing(x: K0Class, y: K0Class) -> int:
    xc = _tilting_coords(x)
    yc = _tilting_coords(y)
    total = sum(xc[p] * yc[p] for p in range(6))
    total += 2 * xc[0] * yc[1]
    tail = yc[2] + yc[3] + yc[4] + yc[5]
    total += (xc[0] + xc[1]) * tail
    return total


def q_form(cl: K0Class) -> int:
    """Affine-D4 quadratic form on the finite part (a0; a), ignoring delta."""
    a0, a = cl.a0, cl.a
    return a0 * a0 + sum(x * x for x in a) - a0 * sum(a)


class RootKind(Enum):
    REAL = "real"
    IMAGINARY = "imaginary"
    NOT_ROOT = "not-root"


class RootInfo(Record):
    __slots__ = ("kind", "is_sheaf_class")


def classify_root(cl: K0Class) -> RootInfo:
    """Real iff q = 1, imaginary iff q = 0 and nonzero (pure n*delta classes
    count as imaginary since [S_x] is realized by indecomposable sheaves)."""
    q = q_form(cl)
    if q == 1:
        kind = RootKind.REAL
    elif q == 0 and not cl.is_zero():
        kind = RootKind.IMAGINARY
    else:
        kind = RootKind.NOT_ROOT
    r, d = rank(cl), degree(cl)
    return RootInfo(kind, r > 0 or (r == 0 and d > 0))


def _finite_parts(r: int) -> list[tuple[int, int, int, int]]:
    """The finite parts a with q(r; a) = 1, for a rank r >= 0.

    q(r; a) = sum_i (a_i - r/2)^2.  For even r = 2h these are four integer
    squares summing to 1: one a_i is h +- 1, the others are h.  For odd
    r = 2h + 1 each is at least 1/4, so each is 1/4: every a_i is h or
    h + 1.  Rows: for even r the h + 1 rows, then the h - 1 rows, each by
    the position of that entry; for odd r in itertools.product order.
    """
    h = r // 2
    if r % 2:
        return list(product((h, h + 1), repeat=4))
    return [tuple(h + eps if k == i else h for k in range(4))
            for eps in (1, -1) for i in range(4)]


def real_root_gamma_parts(m: int) -> list[tuple[int, tuple[int, int, int, int]]]:
    """The 24 parametrized finite parts of the positive real roots, at level m.

    Row order: a0 = 2m with one entry m+1; a0 = 2m+1 with zero, one, two,
    three, four entries m+1; a0 = 2m+2 with one entry m.  Within a block
    the rows keep the order of _finite_parts (itertools.product order for
    a0 = 2m+1)."""
    blocks = ((2 * m, _finite_parts(2 * m)[:4]),
              (2 * m + 1, sorted(_finite_parts(2 * m + 1), key=sum)),
              (2 * m + 2, _finite_parts(2 * m + 2)[4:]))
    return [(a0, a) for a0, parts in blocks for a in parts]


def enumerate_real_roots(m_max: int, n_min: int, n_max: int) -> list[K0Class]:
    """All classes +-alpha + n*delta from the 24-row parametrization, sorted
    lexicographically on coordinates.  None comes up twice: the rows of a
    level are distinct, levels m and m + 1 share only a0 = 2m + 2, where
    their entries differ (m against m + 2), and a sign flip changes a0, or
    a when a0 = 0."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    return sorted((K0Class(sign * a0, tuple(sign * x for x in a), n)
                   for m in range(m_max + 1)
                   for a0, a in real_root_gamma_parts(m)
                   for sign in (1, -1)
                   for n in range(n_min, n_max + 1)), key=lambda c: c.coords)


def real_root_count(m_max: int, n_min: int, n_max: int) -> int:
    """len(enumerate_real_roots(m_max, n_min, n_max)), without building
    it: 24 rows per level, two signs and one class per n."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    return 48 * (m_max + 1) * max(n_max - n_min + 1, 0)


def real_roots_bruteforce_box(a0_bound: int, a_bound: int, n_bound: int) -> list[K0Class]:
    """Exhaustive scan of the coordinate box |a0| <= a0_bound,
    |a_k| <= a_bound, |n| <= n_bound for classes with q = 1.

    Definitional oracle for enumerate_real_roots.
    """
    if min(a0_bound, a_bound, n_bound) < 0:
        raise ValueError("bounds must be nonnegative")
    out = []
    rng_a = range(-a_bound, a_bound + 1)
    for a0 in range(-a0_bound, a0_bound + 1):
        for a in product(rng_a, repeat=4):
            if a0 * a0 + sum(x * x for x in a) - a0 * sum(a) == 1:
                for n in range(-n_bound, n_bound + 1):
                    out.append(K0Class(a0, a, n))
    out.sort(key=lambda c: c.coords)
    return out


def real_root_classes_with_rd(r: int, d: int) -> list[K0Class]:
    """All real-root classes of a given rank r >= 0 and degree d, in closed
    form: the q = 1 constraint pins the finite part to _finite_parts(r),
    and the degree d = sum a + 2n keeps the parts whose sum has the parity
    of d and pins the delta coefficient."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    return sorted((K0Class(r, a, (d - sum(a)) // 2) for a in _finite_parts(r)
                   if (d - sum(a)) % 2 == 0), key=lambda c: c.coords)
