"""Sparse exact linear algebra over a coefficient field, on ints.

A row is a `{column: int}` dict: the int numerators of one equation, or
of any nonzero multiple of it, since scaling a row by a nonzero constant
changes neither the rank nor the solution set. Over QQ a caller clears
a row's denominators by scaling it; over GF(p) the ints stand for their
residues. A matrix is a list of rows. One echelon loop, `_echelon`,
serves both entry points. Each row passes through the field's
`canonical_row` once. At each step the row's leading column is looked
up once among the pivot rows found so far: a row that leads a new
column becomes that column's pivot row as it stands, and any other row
is reduced at that column and looked at again, until it leads a new
column or reduces to zero. The pivot columns of an echelon form depend
only on the row space, so rank and the solution with free variables set
to zero do not depend on row order.

The engine is fraction-free, like `groebner.divide_full`. A row enters
as it stands when it is canonical already: no zero entry and, over
GF(p), every entry in [1, p), as the graded window maps and systems hand
their rows over. Any other int row enters as the field's `normalize` of
it over denominator 1, its zero entries dropped and, over GF(p), every
entry reduced into [1, p). A caller's row is copied at its first
elimination step, and pivot rows are only read, so the caller's row is
never modified. To cancel the leading entry c of the working row
against a pivot row with leading entry a, the field's `cancel` gives
(s, t) with s*c == t*a, and the working row becomes s*row - t*pivot,
each entry passed through `reduce_int`. Over GF(p), s is always 1 and
every entry stays in [0, p). Over QQ, after each s > 1 the row's content
is divided out, so its ints stay as small as its primitive form. Pivot
rows keep their leading entry as it is; `solve_linear` divides by it
during back substitution, where the solution is built over one common
denominator. No zero entry is stored.
"""

from __future__ import annotations

from math import gcd, lcm


def _echelon(rows: list[dict], field) -> dict[int, dict]:
    """The pivot rows of an echelon form of the int `rows`, by leading
    column. A row is copied only at its first elimination step, so the
    caller's rows are only read."""
    pivots: dict[int, dict] = {}
    canonical_row, cancel, reduce_int = field.canonical_row, field.cancel, field.reduce_int
    for row in rows:
        work = canonical_row(row)
        while work:
            col = min(work)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = work
                break
            if work is row:
                work = dict(row)
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
    return pivots


def matrix_rank(rows: list[dict], field, pivot_columns: set | None = None) -> int:
    """The rank of the int `rows`.

    When `pivot_columns` is given, the pivot columns of the echelon form
    are added to it: the leading columns of a basis of the row space,
    which depend on the row space alone. The unit vectors of the other
    columns span a complement of the row space.
    """
    pivots = _echelon(rows, field)
    if pivot_columns is not None:
        pivot_columns.update(pivots)
    return len(pivots)


def solve_linear(rows: list[dict], ncols: int, field) -> tuple[list[int], int] | None:
    """One solution x of A x = b, or None when the system is inconsistent.

    `rows` are the int augmented rows of (A | b): column `ncols` holds b.
    Free variables are set to zero, which makes x unique. The solution
    comes back as (nums, den) with x[c] == nums[c]/den: over QQ, den is
    the least common denominator of the entries of x; over GF(p), den is
    1 and every numerator lies in [0, p).
    """
    pivots = _echelon(rows, field)
    if ncols in pivots:
        return None
    cancel, reduce_int = field.cancel, field.reduce_int
    nums, den = [0] * ncols, 1
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        # x[col] = (b - sum a_c*x[c]) / a_col, with x[c] = nums[c]/den.
        value = row.get(ncols, 0) * den
        for c, v in row.items():
            if col < c < ncols:
                value -= v * nums[c]
        value = reduce_int(value)
        if not value:
            continue
        s, t = cancel(value, den * row[col])  # x[col] == t/s, s > 0 minimal
        if s != 1 and den % s:
            common = lcm(den, s)
            k = common // den
            nums = [n * k for n in nums]
            den = common
        nums[col] = t * (den // s)
    return nums, den
