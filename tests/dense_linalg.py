"""Dense exact Gaussian elimination, kept as the reference that the sparse
engine in `mfkit.linalg` is tested against.

`matrix_rank` and `solve_linear` take the same sparse rows as the
functions of `mfkit.linalg`, so this module can stand in for it; they
expand the rows to dense lists and run Gauss-Jordan elimination with
deterministic pivoting (first nonzero entry in column order).
"""

from __future__ import annotations


def row_echelon(rows: list[list], field) -> tuple[int, list[int]]:
    """Reduce `rows` in place to row echelon form.

    Returns (rank, pivot column indices).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][col] != field.zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(v, inv) for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != field.zero:
                factor = rows[i][col]
                rows[i] = [
                    field.sub(v, field.mul(factor, w))
                    for v, w in zip(rows[i], rows[r])
                ]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return r, pivots


def dense(rows: list[dict], ncols: int, field) -> list[list]:
    return [[row.get(c, field.zero) for c in range(ncols)] for row in rows]


def matrix_rank(rows: list[dict], field) -> int:
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    if not rows or not ncols:
        return 0
    rank, _ = row_echelon(dense(rows, ncols, field), field)
    return rank


def solve_linear(rows: list[dict], ncols: int, field) -> list | None:
    """One solution x of A x = b, or None when the system is inconsistent.

    `rows` are the augmented rows of (A | b), column `ncols` holding b.
    Free variables are set to zero.
    """
    if not rows:
        return [field.zero] * ncols
    aug = dense(rows, ncols + 1, field)
    rank, pivots = row_echelon(aug, field)
    for i in range(rank, len(aug)):
        if aug[i][ncols] != field.zero:
            return None
    if pivots and pivots[-1] == ncols:
        return None
    x = [field.zero] * ncols
    for i, col in enumerate(pivots):
        x[col] = aug[i][ncols]
    return x
