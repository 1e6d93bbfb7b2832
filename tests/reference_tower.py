"""Plain-arithmetic matrix products and determinants over a tower level.

`matmul` is the accumulate loop that `RingMatrix.__matmul__` used before
it went through `sum_of_products`: one `Polynomial` product and one sum
per term, then one normal form per entry; `mfkit.tower` is tested
against it. `det` is the textbook cofactor expansion along the first
row, with no memo and one normal form at the end. mfkit computes no
determinant: the tests use `det` to check that det(phi)*det(psi) is
w^rank, which the cokernel certificate derives from psi@phi == w*1.
Both use only `Polynomial` `*`, `+` and `-`.
"""

from __future__ import annotations

from mfkit.tower import RingMatrix


def matmul(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    tower = a.tower
    zero = tower.ring.zero()
    entries = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = zero
            for k in range(a.ncols):
                x = a.entries[i][k]
                y = b.entries[k][j]
                if x.is_zero() or y.is_zero():
                    continue
                acc = acc + x * y
            row.append(tower.normal_form(acc, a.level))
        entries.append(row)
    return RingMatrix(tower, a.level, entries, a.nrows, b.ncols, normalize=False)


def _cofactor_expansion(rows):
    if not rows:
        return None
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, a in enumerate(rows[0]):
        minor = _cofactor_expansion([r[:j] + r[j + 1 :] for r in rows[1:]])
        term = a * minor
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def det(m: RingMatrix):
    rows = [list(r) for r in m.entries]
    value = _cofactor_expansion(rows)
    if value is None:
        return m.tower.ring.one()
    return m.tower.normal_form(value, m.level)
