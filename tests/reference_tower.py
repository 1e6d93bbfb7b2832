"""Plain-arithmetic matrix products and determinants over a tower level.

`matmul` is the accumulate loop that `RingMatrix.__matmul__` used before
it went through `sum_of_products`: one `Polynomial` product and one sum
per term, then one normal form per entry; `mfkit.tower` is tested
against it. `det` is the textbook cofactor expansion along the first
row, with no memo and one normal form at the end. mfkit computes no
determinant: the tests use `det` to check that det(phi)*det(psi) is
w^rank, which the cokernel certificate derives from psi@phi == w*1.
Both use only `Polynomial` `*`, `+` and `-`.

`complete_to_basis` is the greedy rank-test completion of a coordinate
vector to a basis, ranked with `dense_linalg`; `build_tower`'s closed
form (drop the generator at the last nonzero coordinate) is tested
against the mid generators it picks.

`divide` is exact division by w with no table, the reference that
`DivisionOracle.divide` is tested against: one `divide_full` of the
whole polynomial against the combined basis, then the normal form
modulo the mid basis of its cofactors against w's cofactor column.
"""

from __future__ import annotations

from math import lcm

from mfkit.errors import NotDivisible
from mfkit.groebner import divide_full, normal_form
from mfkit.poly import sum_of_products
from mfkit.tower import RingMatrix

from .dense_linalg import matrix_rank


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
    return RingMatrix(tower, a.level, entries, b.ncols)


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


def complete_to_basis(field, first_row) -> list[int]:
    """The indices of the standard unit vectors that extend the nonzero
    row of scalar pairs (num, den) to an invertible square matrix, tried
    in index order, each kept when it raises the rank."""
    n = len(first_row)
    den = lcm(*[d for _, d in first_row])
    rows = [{j: num * (den // d) for j, (num, d) in enumerate(first_row) if num}]
    units = []
    for i in range(n):
        if matrix_rank(rows + [{i: 1}], field) > len(rows):
            rows.append({i: 1})
            units.append(i)
    assert len(rows) == n
    return units


def divide(oracle, p):
    """q with p == w*q modulo the oracle's ideal, in normal form, or
    NotDivisible with the oracle's message."""
    rem, cofs = divide_full(p, oracle.combined.polys, oracle.order)
    if not rem.is_zero():
        raise NotDivisible(f"{p!r} is not divisible modulo the ideal (remainder {rem!r})")
    return normal_form(sum_of_products(p.ring, zip(cofs, oracle.w_cofactors)), oracle.mid_basis)
