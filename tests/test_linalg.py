"""The sparse echelon engine against the dense reference it replaced."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkit import linalg, periodic
from mfkit.fields import QQ, PrimeField
from mfkit.periodic import (
    ChainLiftInput,
    PeriodicChainMap,
    graded_acyclicity_window,
    graded_nullhomotopy_window,
    lift_chain_map,
    reduce_morphism,
    reduce_object,
)
from mfkit.tower import Level

from . import dense_linalg
from .genutil import koszul_mf, rand_homogeneous_matrix, rand_nullhomotopic_morphism

FIELDS = [QQ, PrimeField(2), PrimeField(32003)]

# Mostly zeros, as in the graded maps; shapes from empty to tall and wide.
entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
int_matrices = st.integers(0, 7).flatmap(
    lambda ncols: st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=7)
)


def sparse(int_rows, field):
    rows = [{c: field.from_int(v) for c, v in enumerate(row)} for row in int_rows]
    return [{c: v for c, v in row.items() if v != field.zero} for row in rows]


def augmented(int_rows, rhs, field):
    ncols = len(int_rows[0]) if int_rows else 0
    return sparse([row + [b] for row, b in zip(int_rows, rhs)], field), ncols


def check_solution(rows, ncols, x, field):
    for row in rows:
        total = field.zero
        for c, v in row.items():
            if c < ncols:
                total = field.add(total, field.mul(v, x[c]))
        assert total == row.get(ncols, field.zero)


@given(int_matrices, st.sampled_from(FIELDS))
def test_rank_matches_dense(int_rows, field):
    rows = sparse(int_rows, field)
    assert linalg.matrix_rank(rows, field) == dense_linalg.matrix_rank(rows, field)


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
        assert len(x) == ncols
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
    zero, one = field.zero, field.one
    assert linalg.matrix_rank([], field) == 0
    assert linalg.matrix_rank([{}, {}, {}], field) == 0
    assert linalg.solve_linear([], 3, field) == [zero] * 3
    assert linalg.solve_linear([{}, {}], 2, field) == [zero] * 2
    assert linalg.solve_linear([{0: one, 2: one}, {}], 2, field) == [one, zero]
    assert linalg.solve_linear([{2: one}], 2, field) is None
    assert linalg.solve_linear([{0: one}], 0, field) is None


def window_delta(mf, rng):
    """A nonzero criterion-06-style chain map that is nullhomotopic."""
    tower = mf.tower
    n = mf.rank_f
    th, _, _ = rand_nullhomotopic_morphism(mf, mf, rng, homogeneous_degree=1)
    eps = [rand_homogeneous_matrix(tower, rng, n, n, 0).scale(tower.w) for _ in range(3)]
    inp = ChainLiftInput(mf, mf, th.g + eps[0], th.f + eps[1], th.g + eps[2])
    theta, _ = lift_chain_map(inp)
    c = reduce_object(mf)
    eta = PeriodicChainMap(c, c, inp.f0.reduce_to(Level.QUOT), inp.g0.reduce_to(Level.QUOT))
    return reduce_morphism(theta) - eta


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
def test_koszul_windows_match_dense(field, monkeypatch):
    mf = koszul_mf(3, field)
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
