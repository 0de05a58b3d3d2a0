"""Action of the internal degree shift on (rank, degree) and reduction to the
fundamental domain."""
from __future__ import annotations

from enum import Enum

# Matrix of the grade shift (1) on (rank, degree); order 4 in SL(2, Z).
SHIFT_MATRIX = ((-1, -1), (2, 1))


class Region(Enum):
    R1 = "r >= 0, d > 0"
    R2 = "r > 0, d = 0"
    R3 = "r > 0, d < -2r"
    OUTSIDE = "outside"


class OrbitError(ValueError):
    """A shift orbit that does not meet the fundamental domain exactly once."""


def mat_mul(m1, m2):
    return tuple(tuple(sum(m1[i][k] * m2[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def mat_apply(m, p):
    r, d = p
    return (m[0][0] * r + m[0][1] * d, m[1][0] * r + m[1][1] * d)


def mat_pow(m, k: int):
    out = ((1, 0), (0, 1))
    if k < 0:
        raise ValueError("negative power")
    for _ in range(k):
        out = mat_mul(out, m)
    return out


_SHIFT_POWERS = tuple(mat_pow(SHIFT_MATRIX, k) for k in range(4))


def shift_rd(p: tuple[int, int], k: int) -> tuple[int, int]:
    """Apply the k-th power of the shift matrix to (r, d); k may be negative."""
    return mat_apply(_SHIFT_POWERS[k % 4], p)


def region(p: tuple[int, int]) -> Region:
    r, d = p
    if r >= 0 and d > 0:
        return Region.R1
    if r > 0 and d == 0:
        return Region.R2
    if r > 0 and d < -2 * r:
        return Region.R3
    return Region.OUTSIDE


def in_fundamental_domain(p: tuple[int, int]) -> bool:
    return region(p) is not Region.OUTSIDE


def reduce_to_fundamental(p: tuple[int, int]) -> tuple[tuple[int, int], int]:
    """The unique k in 0..3 with shift_rd(p, k) in the fundamental domain."""
    if p == (0, 0):
        raise ValueError("zero class has no fundamental representative")
    hits = [(shift_rd(p, k), k) for k in range(4)
            if in_fundamental_domain(shift_rd(p, k))]
    if len(hits) != 1:
        raise OrbitError(f"orbit of {p} meets the domain {len(hits)} times")
    return hits[0]
