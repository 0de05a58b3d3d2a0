"""The step-by-step reduction, kept as an oracle for reduce_mf.

Each step scans every cell of the matrix for the pivot, by the rule of
reduce_mf: the first unit equal to +-1, else the first rational constant,
else the first unit, each in row-major order.  It then replaces that
matrix by its Schur complement at the pivot and the partner by the minor
that drops the pivot's column as a row and its row as a column.  A's units
go first, then B's.  Nothing here reads the twists, so the oracle does not
rest on the degree-0 argument that reduce_mf's plan uses.
"""
from ellmf.mf import GradedMatrix, MatrixFactorization
from ellmf.poly import UNIT, dot
from ellmf.qlambda import MINUS_ONE, ONE


def find_scalar(g: GradedMatrix):
    """The pivot (i, j) of g, or None if no entry is a unit."""
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


def minor(g: GradedMatrix, i: int, j: int) -> GradedMatrix:
    """g without row i and column j, twists included."""
    return GradedMatrix(
        [row[:j] + row[j + 1:] for r, row in enumerate(g.entries) if r != i],
        g.row_twists[:i] + g.row_twists[i + 1:],
        g.col_twists[:j] + g.col_twists[j + 1:])


def schur_complement(g: GradedMatrix, i: int, j: int) -> GradedMatrix:
    """The (i, j) minor of g minus (column j) * u^-1 * (row i), u the unit
    at (i, j); a row whose column-j entry is zero is kept as it is."""
    minus_inv = -g.entries[i][j].terms[0][1].inverse()
    m = minor(g, i, j)
    top = g.entries[i][:j] + g.entries[i][j + 1:]
    col = (row[j] for r, row in enumerate(g.entries) if r != i)
    rows = []
    for row, c in zip(m.entries, col):
        if not c.is_zero():
            coef = c.scale(minus_inv)
            row = tuple(dot(((a, UNIT), (coef, b))) for a, b in zip(row, top))
        rows.append(row)
    return GradedMatrix(rows, m.row_twists, m.col_twists)


def reference_steps(m: MatrixFactorization):
    """(the reduced m, A's pivots, B's pivots), each pivot (i, j) in the
    indices of the input's matrix, in the order the loop cancels them."""
    A, B = m.A, m.B
    # The input indices of the rows and the columns left in A and in B.
    left = [list(range(A.nrows)), list(range(A.ncols)),
            list(range(B.nrows)), list(range(B.ncols))]
    pivots = ([], [])
    for side in (0, 1):
        g, h = (A, B) if side == 0 else (B, A)
        rows, cols, hrows, hcols = left[2 * side:] + left[:2 * side]
        while (hit := find_scalar(g)) is not None:
            i, j = hit
            pivots[side].append((rows.pop(i), cols.pop(j)))
            del hrows[j], hcols[i]
            g, h = schur_complement(g, i, j), minor(h, j, i)
        A, B = (g, h) if side == 0 else (h, g)
    return MatrixFactorization(A, B, m.f), pivots[0], pivots[1]


def reference_reduce(m: MatrixFactorization) -> MatrixFactorization:
    return reference_steps(m)[0]
