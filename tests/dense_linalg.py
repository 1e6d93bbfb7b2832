"""Dense exact Gaussian elimination, kept as the reference that the sparse
engine in `mfkit.linalg` is tested against.

`matrix_rank` and `solve_linear` take the same sparse int rows as the
functions of `mfkit.linalg` and return the same values, and
`matrix_rank` hands back the same pivot columns, so this module can
stand in for it. They turn each int into a field element of
`reference_poly.RefField` (a Fraction over QQ), expand the rows to dense
lists and run Gauss-Jordan elimination with deterministic pivoting
(first nonzero entry in column order), one field operation per entry.
`solve_linear` turns its solution back into mfkit's (nums, den) form
only at the end.
"""

from __future__ import annotations

from math import lcm

from .reference_poly import RefField


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


def dense(rows: list[dict], ncols: int, field: RefField) -> list[list]:
    return [[field.of(row.get(c, 0)) for c in range(ncols)] for row in rows]


def matrix_rank(rows: list[dict], field, pivot_columns: set | None = None) -> int:
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    if not rows or not ncols:
        return 0
    ref = RefField(field)
    rank, pivots = row_echelon(dense(rows, ncols, ref), ref)
    if pivot_columns is not None:
        pivot_columns.update(pivots)
    return rank


def solve_linear(rows: list[dict], ncols: int, field) -> tuple[list[int], int] | None:
    """One solution x of A x = b, or None when the system is inconsistent.

    `rows` are the augmented int rows of (A | b), column `ncols` holding
    b. Free variables are set to zero. The solution comes back as
    (nums, den) with x[c] == nums[c]/den and den the least common
    denominator (1 over GF(p)).
    """
    ref = RefField(field)
    x = _solve(rows, ncols, ref)
    if x is None:
        return None
    if ref.p is not None:
        return x, 1
    den = lcm(*[v.denominator for v in x])
    return [int(v * den) for v in x], den


def _solve(rows: list[dict], ncols: int, field: RefField) -> list | None:
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
