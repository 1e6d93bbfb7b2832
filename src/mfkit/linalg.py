"""Sparse exact linear algebra over a coefficient field.

A row is a `{column: value}` dict of nonzero field elements; a matrix is
a list of rows. One incremental echelon engine serves both entry points:
each row is reduced at its leading column against the pivot rows found
so far and, unless it reduces to zero, is normalized to leading
coefficient one and becomes a new pivot row. Arithmetic is exact and no
zero entry is stored. The pivot columns of an echelon form depend only
on the row space, so rank and the solution with free variables set to
zero do not depend on row order.
"""

from __future__ import annotations


def _insert(pivots: dict[int, dict], row: dict, field) -> int | None:
    """Reduce `row` against `pivots` and add it as a pivot row.

    Returns the new pivot column, or None when the row reduces to zero.
    """
    zero = field.zero
    sub, mul = field.sub, field.mul
    work = {c: v for c, v in row.items() if v != zero}
    while work:
        col = min(work)
        pivot = pivots.get(col)
        if pivot is None:
            inv = field.inv(work[col])
            pivots[col] = {c: mul(v, inv) for c, v in work.items()}
            return col
        factor = work[col]
        for c, v in pivot.items():
            value = sub(work.get(c, zero), mul(factor, v))
            if value == zero:
                work.pop(c, None)
            else:
                work[c] = value
    return None


def matrix_rank(rows: list[dict], field) -> int:
    pivots: dict[int, dict] = {}
    for row in rows:
        _insert(pivots, row, field)
    return len(pivots)


def solve_linear(rows: list[dict], ncols: int, field) -> list | None:
    """One solution x of A x = b, or None when the system is inconsistent.

    `rows` are the augmented rows of (A | b): column `ncols` holds b.
    Free variables are set to zero, which makes x unique.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        if _insert(pivots, row, field) == ncols:
            return None
    x = [field.zero] * ncols
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        value = row.get(ncols, field.zero)
        for c, v in row.items():
            if col < c < ncols:
                value = field.sub(value, field.mul(v, x[c]))
        x[col] = value
    return x
