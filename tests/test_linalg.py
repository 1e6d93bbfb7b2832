"""The sparse echelon engine against the dense reference it replaced."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkit import linalg, periodic
from mfkit.fields import QQ, PrimeField
from mfkit.mfcat import identity_morphism
from mfkit.periodic import (
    graded_acyclicity_window,
    graded_nullhomotopy_window,
    reduce_morphism,
    reduce_object,
)

from . import dense_linalg
from .genutil import basis_changed_mf, fractions_mf, koszul_mf, window_delta
from .reference_poly import RefField, int_row

FIELDS = [QQ, PrimeField(2), PrimeField(32003)]

# Mostly zeros, as in the graded maps; shapes from empty to tall and wide.
entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
int_matrices = st.integers(0, 7).flatmap(
    lambda ncols: st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=7)
)


def sparse(int_rows, field):
    return [{c: r for c, v in enumerate(row) if (r := field.from_int(v))} for row in int_rows]


def augmented(int_rows, rhs, field):
    ncols = len(int_rows[0]) if int_rows else 0
    return sparse([row + [b] for row, b in zip(int_rows, rhs)], field), ncols


def check_solution(rows, ncols, x, field):
    """x = (nums, den) solves the int rows: sum a_c*nums[c] == b*den."""
    nums, den = x
    assert len(nums) == ncols and den > 0
    for row in rows:
        total = sum(v * nums[c] for c, v in row.items() if c < ncols)
        assert field.reduce_int(total - row.get(ncols, 0) * den) == 0


@given(int_matrices, st.sampled_from(FIELDS))
def test_rank_matches_dense(int_rows, field):
    rows = sparse(int_rows, field)
    assert linalg.matrix_rank(rows, field) == dense_linalg.matrix_rank(rows, field)


@given(int_matrices, st.sampled_from(FIELDS))
def test_pivot_columns_match_dense(int_rows, field):
    rows = sparse(int_rows, field)
    ncols = len(int_rows[0]) if int_rows else 0
    columns, dense_columns = set(), set()
    rank = linalg.matrix_rank(rows, field, columns)
    assert rank == dense_linalg.matrix_rank(rows, field, dense_columns) == len(columns)
    assert columns == dense_columns
    # The unit vectors of the other columns complete the rows to the
    # whole space.
    units = [{c: 1} for c in range(ncols) if c not in columns]
    assert linalg.matrix_rank(rows + units, field) == ncols


@given(int_matrices, st.data(), st.sampled_from(FIELDS))
@settings(max_examples=200)
def test_solution_matches_dense(int_rows, data, field):
    ncols = len(int_rows[0]) if int_rows else 0
    if data.draw(st.booleans()):
        # Consistent by construction: b = A x0.
        x0 = data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in int_rows]
    else:
        rhs = data.draw(st.lists(entries, min_size=len(int_rows), max_size=len(int_rows)))
    rows, ncols = augmented(int_rows, rhs, field)
    x = linalg.solve_linear(rows, ncols, field)
    assert x == dense_linalg.solve_linear(rows, ncols, field)
    assert linalg.solve_linear(rows[::-1], ncols, field) == x
    if x is not None:
        assert len(x[0]) == ncols
        check_solution(rows, ncols, x, field)


@given(int_matrices.filter(bool), st.data(), st.sampled_from(FIELDS))
def test_inconsistent_system_has_no_solution(int_rows, data, field):
    # Repeating an equation with a right-hand side larger by one forces
    # 0 = 1 in every characteristic.
    rhs = data.draw(st.lists(entries, min_size=len(int_rows), max_size=len(int_rows)))
    k = data.draw(st.integers(0, len(int_rows) - 1))
    rows, ncols = augmented(int_rows + [int_rows[k]], rhs + [rhs[k] + 1], field)
    assert linalg.solve_linear(rows, ncols, field) is None
    assert dense_linalg.solve_linear(rows, ncols, field) is None


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_degenerate_systems(field):
    assert linalg.matrix_rank([], field) == 0
    assert linalg.matrix_rank([{}, {}, {}], field) == 0
    assert linalg.solve_linear([], 3, field) == ([0] * 3, 1)
    assert linalg.solve_linear([{}, {}], 2, field) == ([0] * 2, 1)
    assert linalg.solve_linear([{0: 1, 2: 1}, {}], 2, field) == ([1, 0], 1)
    assert linalg.solve_linear([{2: 1}], 2, field) is None
    assert linalg.solve_linear([{0: 1}], 0, field) is None


BIG_DEN = 2**40 + 15
# Numerators and denominators up to 2^40 + 15, mostly small; zeros common.
numerators = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-BIG_DEN, BIG_DEN))
denominators = st.one_of(st.sampled_from([1, 2, 3, 7, BIG_DEN]), st.integers(1, BIG_DEN))


def element(field, n, d):
    """n/d in `field`; over GF(p) a denominator that vanishes mod p becomes 1."""
    if isinstance(field, PrimeField) and d % field.p == 0:
        d = 1
    return field.ratio(n, d)


def draw_row(data, field, ncols):
    pairs = data.draw(st.lists(st.tuples(numerators, denominators), min_size=ncols, max_size=ncols))
    row = {c: element(field, n, d) for c, (n, d) in enumerate(pairs)}
    return {c: v for c, v in row.items() if v}


def combination(data, field, rows):
    """a*rows[i] + b*rows[j] for drawn i, j and field elements a, b,
    one reference field operation per entry."""
    ref = RefField(field)
    i, j = (data.draw(st.integers(0, len(rows) - 1)) for _ in range(2))
    a, b = (element(field, *data.draw(st.tuples(numerators, denominators))) for _ in range(2))
    out = {}
    for r, k in ((rows[i], a), (rows[j], b)):
        for c, v in r.items():
            out[c] = ref.add(out.get(c, ref.zero), ref.mul(k, v))
    return {c: v for c, v in out.items() if v}


def draw_rational_rows(data, field, ncols):
    """Rows over `field` with large numerators and denominators, plus rows
    that reduce to zero (combinations of earlier rows) and all-zero rows,
    one of them with explicit zero entries, in a drawn order."""
    rows = [draw_row(data, field, ncols) for _ in range(data.draw(st.integers(0, 5)))]
    if rows:
        rows += [combination(data, field, rows) for _ in range(data.draw(st.integers(0, 3)))]
    rows += [{}, {c: 0 for c in range(ncols)}][: data.draw(st.integers(0, 2))]
    return data.draw(st.permutations(rows))


@given(st.data(), st.sampled_from(FIELDS), st.integers(0, 6))
def test_rational_rank_matches_dense(data, field, ncols):
    rows = [int_row(r) for r in draw_rational_rows(data, field, ncols)]
    pivots = linalg._echelon(rows, field)
    assert len(pivots) == linalg.matrix_rank(rows, field) == dense_linalg.matrix_rank(rows, field)
    # Pivot rows are int rows: no zero stored, the pivot column leads,
    # and over GF(p) every entry is reduced.
    for col, row in pivots.items():
        assert min(row) == col
        assert all(type(v) is int and v for v in row.values())
        if isinstance(field, PrimeField):
            assert all(0 < v < field.p for v in row.values())


@given(int_matrices, st.sampled_from(FIELDS))
def test_echelon_leaves_the_callers_rows_unmodified(int_rows, field):
    # Each row twice: as raw ints, with zeros, negatives and, over GF(p),
    # entries past p, which `_echelon` normalizes; and canonical, which it
    # copies at its first elimination step.
    p = getattr(field, "p", 0)
    raw = [{c: v + p * (c % 2) for c, v in enumerate(row)} for row in int_rows]
    rows = [row for pair in zip(raw, sparse(int_rows, field)) for row in pair]
    snapshot = [dict(row) for row in rows]
    pivots = linalg._echelon(rows, field)
    assert rows == snapshot
    assert len(pivots) == dense_linalg.matrix_rank(sparse(int_rows, field), field)
    # The entry points keep caller rows as pivot rows, which they only read.
    assert linalg.matrix_rank(rows, field) == len(pivots)
    ncols = max(len(int_rows[0]) - 1, 0) if int_rows else 0
    linalg.solve_linear(rows, ncols, field)
    assert rows == snapshot


@given(st.data(), st.sampled_from(FIELDS), st.integers(0, 5))
@settings(max_examples=200)
def test_rational_solution_matches_dense(data, field, ncols):
    rows = draw_rational_rows(data, field, ncols + 1)
    if rows and data.draw(st.booleans()):
        # 0 = 1 in every characteristic: a combination of the rows with
        # its right-hand side moved by one.
        ref = RefField(field)
        bad = combination(data, field, rows)
        bad[ncols] = ref.add(bad.get(ncols, ref.zero), ref.one)
        rows.append({c: v for c, v in bad.items() if v})
    rows = [int_row(r) for r in rows]
    x = linalg.solve_linear(rows, ncols, field)
    assert x == dense_linalg.solve_linear(rows, ncols, field)
    assert linalg.solve_linear(rows[::-1], ncols, field) == x
    if x is not None:
        check_solution(rows, ncols, x, field)


def test_qq_elimination_divides_out_the_content():
    # Rows enter as (2, 1) and (3, 3), the int forms of (1/2, 1/4) and
    # (3/7, 3/7). cancel(3, 2) scales the second by s = 2:
    # 2*(3, 3) - 3*(2, 1) = (0, 3), stored as its primitive (0, 1).
    pivots = linalg._echelon([{0: 2, 1: 1}, {0: 3, 1: 3}], QQ)
    assert pivots == {0: {0: 2, 1: 1}, 1: {1: 1}}


def test_prime_field_elimination_reduces_each_entry():
    # Over GF(5), (1, 0, 1) - (1, 1, 0) = (0, -1, 1) is stored as (0, 4, 1).
    f5 = PrimeField(5)
    pivots = linalg._echelon([{0: 1, 1: 1}, {0: 1, 2: 1}], f5)
    assert pivots == {0: {0: 1, 1: 1}, 1: {1: 4, 2: 1}}


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
def test_solution_divides_by_each_pivot(field):
    # No pivot is normalized to 1: x0 + 2*x1 = 3 and 2*x1 = 2 give (1, 1),
    # and 3*x0 = 3 with x1 free gives (1, 0).
    rows = [{0: 1, 1: 2, 2: 3}, {1: 2, 2: 2}]
    assert linalg.solve_linear(rows, 2, field) == ([1, 1], 1)
    assert linalg.solve_linear([{0: 3, 2: 3}], 2, field) == ([1, 0], 1)
    # Over QQ, x0 = 1/2 and x1 = 1/3 come back over their lcm 6.
    if field == QQ:
        assert linalg.solve_linear([{0: 2, 2: 1}, {1: 3, 2: 1}], 2, field) == ([3, 2], 6)


# The Koszul n=3 complex over each field, and a complex over QQ whose
# window equations carry denominators.
@pytest.mark.parametrize("case", [QQ, PrimeField(32003), "fractions"], ids=str)
def test_koszul_windows_match_dense(case, monkeypatch):
    mf = fractions_mf() if case == "fractions" else koszul_mf(3, case)
    delta = window_delta(mf, random.Random(71))
    assert not delta.is_zero()

    def windows():
        report = graded_acyclicity_window(reduce_object(mf), 0, 3)
        return report, graded_nullhomotopy_window(delta, 0, 2)

    report, null = windows()
    with monkeypatch.context() as m:
        m.setattr(periodic, "linalg", dense_linalg)
        dense_report, dense_null = windows()
    assert report.all_zero
    assert (report.rows, report.dual_rows) == (dense_report.rows, dense_report.dual_rows)
    assert null.solvable and dense_null.solvable
    assert null.diagonals == dense_null.diagonals


# Koszul rows reach the engine in echelon form already; the rows of an
# isomorphic copy (P@phi@Q^-1, Q@psi@P^-1) have to be eliminated. Each
# case: (n, top acyclicity degree, top nullhomotopy position, seed).
@pytest.mark.parametrize("n, d_max, p_max, seed", [(2, 4, 4, 81), (2, 4, 4, 82), (3, 3, 2, 83), (3, 3, 2, 84)])
@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
def test_basis_changed_koszul_windows(n, d_max, p_max, seed, field):
    rng = random.Random(seed)
    mf = koszul_mf(n, field)
    copy = basis_changed_mf(mf, rng)
    assert copy.phi != mf.phi
    report = graded_acyclicity_window(reduce_object(mf), 0, d_max)
    copy_report = graded_acyclicity_window(reduce_object(copy), 0, d_max)
    assert (copy_report.rows, copy_report.dual_rows) == (report.rows, report.dual_rows)
    null = graded_nullhomotopy_window(window_delta(copy, rng), 0, p_max)
    assert null.solvable and null.verified_positions == list(range(1, p_max + 1))
    for c in (mf, copy):
        assert not graded_nullhomotopy_window(reduce_morphism(identity_morphism(c)), 0, p_max).solvable
