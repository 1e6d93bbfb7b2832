"""Sparse exact linear algebra over a coefficient field.

A row is a `{column: value}` dict of nonzero field elements; a matrix is
a list of rows. One incremental echelon engine serves both entry points:
each row is reduced at its leading column against the pivot rows found
so far and, unless it reduces to zero, becomes a new pivot row. The
pivot columns of an echelon form depend only on the row space, so rank
and the solution with free variables set to zero do not depend on row
order.

The engine runs on ints, fraction-free, like `groebner.divide_full`.
A row enters as its field's `integer_form`, a nonzero multiple of it,
and scaling a row by a nonzero constant changes neither the rank nor
the solution set. To cancel the leading entry c of the working row
against a pivot row with leading entry a, the field's `cancel` gives
(s, t) with s*c == t*a, and the working row becomes s*row - t*pivot,
each entry passed through `reduce_int`. Over GF(p), s is always 1 and
every entry stays in [0, p). Over QQ, after each s > 1 the row's content
is divided out, so its ints stay as small as its primitive form. Pivot
rows keep their leading entry as it is; `solve_linear` divides by it
during back substitution, and builds field elements only there. No
zero entry is stored.
"""

from __future__ import annotations

from math import gcd


def _insert(pivots: dict[int, dict], row: dict, field) -> int | None:
    """Reduce `row` against the int `pivots` and add it as a pivot row.

    Returns the new pivot column, or None when the row reduces to zero.
    """
    cancel, reduce_int = field.cancel, field.reduce_int
    work = {c: v for c, v in field.integer_form(row)[0].items() if v}
    while work:
        col = min(work)
        pivot = pivots.get(col)
        if pivot is None:
            pivots[col] = work
            return col
        s, t = cancel(work[col], pivot[col])
        if s != 1:
            for c in work:
                work[c] *= s
        for c, v in pivot.items():
            value = reduce_int(work.get(c, 0) - t * v)
            if value:
                work[c] = value
            else:
                work.pop(c, None)
        if s != 1 and work:
            g = gcd(*work.values())
            if g != 1:
                for c in work:
                    work[c] //= g
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
    zero, from_int = field.zero, field.from_int
    x = [zero] * ncols
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        value = from_int(row.get(ncols, 0))
        for c, v in row.items():
            if col < c < ncols and x[c] != zero:
                value = field.sub(value, field.mul(from_int(v), x[c]))
        x[col] = field.div(value, from_int(row[col]))
    return x
