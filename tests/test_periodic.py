"""Reduction functor, lifting algorithms and graded-window oracles."""

import functools
import math
import random
import time
import tracemalloc

import pytest

from mfkit.errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptyWindow,
    LevelMismatch,
    NotDivisible,
    NotHomogeneous,
    TowerMismatch,
)
from mfkit.mfcat import (
    MatrixFactorization,
    MfMorphism,
    direct_sum,
    dual_mf,
    identity_morphism,
    mapping_cone,
    suspend,
    verify_homotopy,
    verify_mf,
    verify_morphism,
    zero_morphism,
)
from mfkit.periodic import (
    ChainLiftInput,
    HomotopyTransportInput,
    graded_acyclicity_window,
    graded_nullhomotopy_window,
    lift_chain_map,
    reduce_homotopy,
    reduce_morphism,
    reduce_object,
    transport_nullhomotopy,
    twist_of,
)
from mfkit.mfcat import compose_morphisms
from mfkit.tower import Level, RingMatrix

from .genutil import (
    build_corpus_objects,
    build_corpus_towers,
    cyclic_garbage,
    fractions_mf,
    koszul_mf,
    mat,
    rand_homogeneous_matrix,
    rand_matrix,
    rand_nullhomotopic_morphism,
    window_delta,
)


class TestReduceObject:
    def test_uv_complex(self, objects):
        c = reduce_object(objects["A"])
        assert c.phi == mat(objects["A"].tower, [["u"]], Level.QUOT)
        assert c.psi == mat(objects["A"].tower, [["v"]], Level.QUOT)
        assert twist_of(c.tower) == 2

    def test_rank_zero(self, objects):
        t = objects["A"].tower
        z = RingMatrix.zeros(t, Level.MID, 0, 0)
        c = reduce_object(verify_mf(z, z))
        assert c.rank_f == 0

    def test_square_complex(self, objects):
        c = reduce_object(objects["C"])
        t = objects["C"].tower
        assert c.phi == c.psi == mat(t, [["x"]], Level.QUOT)
        assert (c.phi @ c.psi).is_zero()


class TestReduceMorphismAndHomotopy:
    def test_identity_reduces_to_identity(self, objects):
        for mf in objects.values():
            cm = reduce_morphism(identity_morphism(mf))
            assert cm.f == RingMatrix.identity(mf.tower, Level.QUOT, mf.rank_f)

    def test_w_multiple_reduces_to_zero(self, objects):
        a = objects["A"]
        t = a.tower
        th = verify_morphism(a, a, mat(t, [["u*v"]]), mat(t, [["u*v"]]))
        assert reduce_morphism(th).is_zero()

    def test_functor_laws_random(self, objects):
        rng = random.Random(41)
        for name in ("A", "B", "C", "D"):
            a = objects[name]
            for _ in range(10):
                th1, _, _ = rand_nullhomotopic_morphism(a, a, rng)
                th2, _, _ = rand_nullhomotopic_morphism(a, a, rng)
                lhs = reduce_morphism(compose_morphisms(th2, th1))
                rhs_f = th2.f.reduce_to(Level.QUOT) @ th1.f.reduce_to(Level.QUOT)
                rhs_g = th2.g.reduce_to(Level.QUOT) @ th1.g.reduce_to(Level.QUOT)
                assert lhs.f == rhs_f
                assert lhs.g == rhs_g

    def test_homotopy_reduces(self, objects):
        rng = random.Random(42)
        b = objects["B"]
        th, s, t = rand_nullhomotopic_morphism(b, b, rng)
        from mfkit.mfcat import verify_homotopy

        h = verify_homotopy(th, zero_morphism(b, b), s, t)
        reduce_homotopy(h)  # verifies the reduced identities internally


class TestReductionCommutesWithConstructions:
    def test_direct_sum(self, objects):
        for name in ("A", "B", "C"):
            a = objects[name]
            for b in (a, suspend(a)):
                assert reduce_object(direct_sum(a, b)) == direct_sum(reduce_object(a), reduce_object(b))

    def test_mapping_cone(self, objects):
        rng = random.Random(44)
        for name in ("A", "B", "C"):
            a = objects[name]
            thetas = [identity_morphism(a), zero_morphism(a, a)]
            thetas += [rand_nullhomotopic_morphism(a, a, rng)[0] for _ in range(3)]
            for theta in thetas:
                cone, include, project = mapping_cone(theta)
                cone_bar, include_bar, project_bar = mapping_cone(reduce_morphism(theta))
                assert reduce_object(cone) == cone_bar
                assert reduce_morphism(include) == include_bar
                assert reduce_morphism(project) == project_bar


class TestDualReduction:
    def test_corpus_objects(self, objects):
        for mf in objects.values():
            assert reduce_object(dual_mf(mf)) == dual_mf(reduce_object(mf))

    def test_random_derived(self, objects):
        rng = random.Random(43)
        from .genutil import rand_derived_object

        for name in ("A", "B", "C", "D"):
            for _ in range(10):
                obj = rand_derived_object(objects[name], rng)
                assert reduce_object(dual_mf(obj)) == dual_mf(reduce_object(obj))


class TestTransport:
    def test_zero_morphism_zero_lifts(self, objects):
        a = objects["A"]
        t = a.tower
        z = RingMatrix.zeros(t, Level.MID, 1, 1)
        inp = HomotopyTransportInput(zero_morphism(a, a), z, z, z)
        h = transport_nullhomotopy(inp)
        assert h.s.is_zero() and h.t.is_zero()

    def test_w_identity_with_exact_lifts(self, objects):
        a = objects["A"]
        t = a.tower
        th = verify_morphism(a, a, mat(t, [["u*v"]]), mat(t, [["u*v"]]))
        inp = HomotopyTransportInput(th, mat(t, [["v"]]), mat(t, [["0"]]), mat(t, [["v"]]))
        h = transport_nullhomotopy(inp)
        assert h.s == mat(t, [["v"]])
        assert h.t == mat(t, [["0"]])

    def test_bad_lifts_rejected(self, objects):
        a = objects["A"]
        t = a.tower
        th = verify_morphism(a, a, mat(t, [["u*v"]]), mat(t, [["u*v"]]))
        with pytest.raises(NotDivisible):
            HomotopyTransportInput(th, mat(t, [["1"]]), mat(t, [["0"]]), mat(t, [["v"]]))

    def test_randomized_perturbed_lifts(self, objects):
        rng = random.Random(44)
        for name in ("A", "B", "C", "D"):
            a = objects[name]
            tower = a.tower
            n = a.rank_f
            for _ in range(10):
                th, s, t = rand_nullhomotopic_morphism(a, a, rng)
                d1 = rand_matrix(tower, rng, n, n, 1)
                d2 = rand_matrix(tower, rng, n, n, 1)
                inp = HomotopyTransportInput(
                    th, s + d1.scale(tower.w), t, s + d2.scale(tower.w)
                )
                h = transport_nullhomotopy(inp)
                assert h.theta is th
                assert h.theta_prime.f.is_zero()

    def test_quot_level_diagonals_are_a_level_error(self, objects):
        # Diagonals at QUOT are a level error (exit 3, like every other
        # level check), for a MID theta and for its reduction alike.
        a = objects["A"]
        z = RingMatrix.zeros(a.tower, Level.QUOT, 1, 1)
        theta = zero_morphism(a, a)
        for th in (theta, reduce_morphism(theta)):
            with pytest.raises(LevelMismatch, match="s1 must be a MID-level matrix, got QUOT"):
                HomotopyTransportInput(th, z, z, z)
        zm = RingMatrix.zeros(a.tower, Level.MID, 1, 1)
        with pytest.raises(LevelMismatch, match="f must be a MID-level matrix, got QUOT"):
            HomotopyTransportInput(reduce_morphism(theta), zm, zm, zm)
        c = reduce_object(a)
        with pytest.raises(LevelMismatch, match="g1 must be a MID-level matrix, got QUOT"):
            ChainLiftInput(a, a, z, z, z)
        with pytest.raises(LevelMismatch, match="phi1 must be a MID-level matrix, got QUOT"):
            ChainLiftInput(c, c, zm, zm, zm)

    def test_operands_from_another_tower_are_a_tower_error(self, objects):
        # Each constructor leaves the common-tower check to the tower's
        # own guards, which every operand meets; a foreign operand in any
        # place is a TowerMismatch.
        a = objects["A"]
        other = build_corpus_objects(build_corpus_towers())["A"]
        one, one2 = (RingMatrix.identity(t, Level.MID, 1) for t in (a.tower, other.tower))
        zero, zero2 = (RingMatrix.zeros(t, Level.MID, 1, 1) for t in (a.tower, other.tower))
        theta = zero_morphism(a, a)
        for build in (
            lambda: MatrixFactorization(a.phi, other.psi),
            lambda: MfMorphism(a, other, one, one),
            lambda: MfMorphism(a, a, one2, one),
            lambda: MfMorphism(a, a, one, one2),
            lambda: direct_sum(a, other),
            lambda: ChainLiftInput(a, other, one, one, one),
            lambda: ChainLiftInput(a, a, one2, one, one),
            lambda: ChainLiftInput(a, a, one, one2, one),
            lambda: ChainLiftInput(a, a, one, one, one2),
            lambda: HomotopyTransportInput(theta, zero2, zero, zero),
            lambda: HomotopyTransportInput(theta, zero, zero2, zero),
            lambda: HomotopyTransportInput(theta, zero, zero, zero2),
        ):
            with pytest.raises(TowerMismatch):
                build()

    def test_lifting_input_shapes_are_checked_in_order(self, objects):
        # From A (rank 1) into A + A (rank 2): each lifted matrix must be
        # 2x1, and the first wrong one is named.
        a = objects["A"]
        aa = direct_sum(a, a)
        t = a.tower
        wide, tall = mat(t, [["0", "0"]]), mat(t, [["0"], ["0"]])
        zero = zero_morphism(a, aa)
        for args, message in [
            ((wide, wide, wide), "s1 must be 2x1, got 1x2"),
            ((tall, wide, wide), "t must be 2x1, got 1x2"),
            ((tall, tall, wide), "s2 must be 2x1, got 1x2"),
        ]:
            with pytest.raises(DimensionMismatch) as err:
                HomotopyTransportInput(zero, *args)
            assert str(err.value) == message
        for args, message in [
            ((wide, wide, wide), "g1 must be 2x1, got 1x2"),
            ((tall, wide, wide), "f0 must be 2x1, got 1x2"),
            ((tall, tall, wide), "g0 must be 2x1, got 1x2"),
        ]:
            with pytest.raises(DimensionMismatch) as err:
                ChainLiftInput(a, aa, *args)
            assert str(err.value) == message


class TestLift:
    def test_identity_lifts(self, objects):
        a = objects["A"]
        one = RingMatrix.identity(a.tower, Level.MID, 1)
        theta, witness = lift_chain_map(ChainLiftInput(a, a, one, one, one))
        assert theta.f == one and theta.g == one
        assert witness.phi_gap.is_zero() and witness.psi_gap.is_zero()

    def test_exact_reduction_lifts_to_itself(self, objects):
        rng = random.Random(45)
        b = objects["B"]
        th, _, _ = rand_nullhomotopic_morphism(b, b, rng)
        inp = ChainLiftInput(b, b, th.g, th.f, th.g)
        theta, witness = lift_chain_map(inp)
        assert theta.f == th.f and theta.g == th.g
        assert witness.phi_gap.is_zero() and witness.psi_gap.is_zero()

    def test_bad_window_rejected(self, objects):
        a = objects["A"]
        t = a.tower
        one = RingMatrix.identity(t, Level.MID, 1)
        with pytest.raises(NotDivisible):
            ChainLiftInput(a, a, one, mat(t, [["u"]]), one)

    def test_perturbed_lift_verifies(self, objects):
        rng = random.Random(46)
        for name in ("A", "B", "C", "D"):
            a = objects[name]
            tower = a.tower
            n = a.rank_f
            for _ in range(10):
                th, _, _ = rand_nullhomotopic_morphism(a, a, rng)
                eps = [rand_matrix(tower, rng, n, n, 1) for _ in range(3)]
                inp = ChainLiftInput(
                    a, a,
                    th.g + eps[0].scale(tower.w),
                    th.f + eps[1].scale(tower.w),
                    th.g + eps[2].scale(tower.w),
                )
                theta, witness = lift_chain_map(inp)
                # The reduction of the lift agrees with the input window
                # up to the witnessed zeroth homotopy part.
                lhs = (theta.f - inp.f0).reduce_to(Level.QUOT)
                rhs = (
                    -(a.psi.reduce_to(Level.QUOT) @ witness.phi_gap_bar)
                    + witness.psi_gap_bar @ a.phi.reduce_to(Level.QUOT)
                )
                assert lhs == rhs


class TestAcyclicityWindow:
    def test_uv_window_all_zero(self, objects):
        report = graded_acyclicity_window(reduce_object(objects["A"]), 0, 4)
        assert report.all_zero
        assert len(report.rows) == 10

    def test_square_window_all_zero(self, objects):
        report = graded_acyclicity_window(reduce_object(objects["C"]), 0, 4)
        assert report.all_zero

    def test_noncomplex_control_has_homology(self, objects):
        t = objects["A"].tower
        z = RingMatrix.zeros(t, Level.QUOT, 1, 1)
        fake = MatrixFactorization(z, z)
        report = graded_acyclicity_window(fake, 0, 4)
        assert not report.all_zero
        # Every admissible degree carries homology: the quotient ring is
        # nonzero in each degree of the window.
        assert all(r.homology > 0 for r in report.rows)

    def test_inhomogeneous_tower_rejected(self, objects):
        with pytest.raises(NotHomogeneous):
            graded_acyclicity_window(reduce_object(objects["D"]), 0, 4)

    def test_mid_level_input_rejected(self, objects):
        with pytest.raises(LevelMismatch):
            graded_acyclicity_window(objects["A"], 0, 4)

    def test_budget(self, objects):
        c = reduce_object(objects["A"])
        with pytest.raises(BudgetExceeded):
            graded_acyclicity_window(c, 0, 50, budget=10)
        # Every degree of -100..0 is below the budget; the span is not.
        with pytest.raises(BudgetExceeded) as err:
            graded_acyclicity_window(c, -100, 0, budget=10)
        assert str(err.value) == "window -100..0 spans 100 degrees, budget is 10"

    def test_koszul_n4_window_all_zero(self):
        report = graded_acyclicity_window(reduce_object(koszul_mf(4)), 0, 3)
        assert report.all_zero
        assert len(report.rows) == len(report.dual_rows) == 8

    def test_window_calls_leave_no_cyclic_garbage(self):
        # The pivot sets handed between the two differentials live only
        # as long as the call: nothing a window creates is left for the
        # cyclic collector.
        mf = koszul_mf(3)
        c, delta = reduce_object(mf), window_delta(mf, random.Random(74))
        (report, window), garbage = cyclic_garbage(
            lambda: (graded_acyclicity_window(c, 0, 3), graded_nullhomotopy_window(delta, 0, 2)))
        assert garbage == 0
        assert report.all_zero and window.solvable

    def test_hand_computed_row(self, objects):
        # Oracle: over k[u,v]/(uv) in degree 1 the piece has basis u, v;
        # multiplication by u kills v and sends u to u^2, so the kernel
        # and image are both one dimensional at the F position.
        report = graded_acyclicity_window(reduce_object(objects["A"]), 1, 1)
        row = report.rows[0]
        assert (row.dim_ker, row.dim_im, row.homology) == (1, 1, 0)


class TestNullhomotopyWindow:
    def test_zero_chain_map(self, objects):
        a = objects["A"]
        delta = reduce_morphism(zero_morphism(a, a))
        win = graded_nullhomotopy_window(delta, 0, 4)
        assert win.solvable
        assert all(d.is_zero() for d in win.diagonals)

    def test_w_multiple_reduces_to_zero_map(self, objects):
        a = objects["A"]
        t = a.tower
        th = verify_morphism(a, a, mat(t, [["u*v"]]), mat(t, [["u*v"]]))
        delta = reduce_morphism(th)
        win = graded_nullhomotopy_window(delta, 0, 4)
        assert win.solvable
        assert all(d.is_zero() for d in win.diagonals)

    def test_reduced_nullhomotopic_morphism_solvable(self, objects):
        rng = random.Random(47)
        b = objects["B"]
        th, _, _ = rand_nullhomotopic_morphism(b, b, rng, homogeneous_degree=1)
        delta = reduce_morphism(th)
        win = graded_nullhomotopy_window(delta, 0, 6)
        assert win.solvable
        assert win.verified_positions == list(range(1, 7))

    def test_lift_certification(self, objects):
        rng = random.Random(48)
        b = objects["B"]
        tower = b.tower
        found_nonzero = False
        for _ in range(5):
            th, _, _ = rand_nullhomotopic_morphism(b, b, rng, homogeneous_degree=1)
            eps = [rand_homogeneous_matrix(tower, rng, 2, 2, 0) for _ in range(3)]
            inp = ChainLiftInput(
                b, b,
                th.g + eps[0].scale(tower.w),
                th.f + eps[1].scale(tower.w),
                th.g + eps[2].scale(tower.w),
            )
            theta, _ = lift_chain_map(inp)
            eta = MfMorphism(
                reduce_object(b), reduce_object(b),
                inp.f0.reduce_to(Level.QUOT), inp.g0.reduce_to(Level.QUOT),
            )
            delta = reduce_morphism(theta) - eta
            found_nonzero = found_nonzero or not delta.is_zero()
            win = graded_nullhomotopy_window(delta, 0, 6)
            assert win.solvable
        assert found_nonzero  # the certification was not vacuous

    def test_mid_level_input_rejected(self, objects):
        a = objects["A"]
        with pytest.raises(LevelMismatch):
            graded_nullhomotopy_window(identity_morphism(a), 0, 4)

    def test_a_window_wider_than_the_budget_is_refused(self, objects):
        delta = reduce_morphism(identity_morphism(objects["A"]))
        with pytest.raises(BudgetExceeded) as err:
            graded_nullhomotopy_window(delta, 0, 100, budget=10)
        assert str(err.value) == "window 0..100 spans 100 positions, budget is 10"

    def test_a_zero_window_wider_than_the_budget_is_refused(self, objects):
        # A zero chain map needs no graded piece, but its span is bounded.
        a = objects["A"]
        delta = reduce_morphism(zero_morphism(a, a))
        with pytest.raises(BudgetExceeded) as err:
            graded_nullhomotopy_window(delta, 0, 100, budget=10)
        assert str(err.value) == "window 0..100 spans 100 positions, budget is 10"

    def test_a_huge_zero_window_is_refused_before_any_diagonal(self, objects):
        a = objects["A"]
        delta = reduce_morphism(zero_morphism(a, a))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(BudgetExceeded):
                graded_nullhomotopy_window(delta, 0, 10**9, budget=10)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 100_000  # bytes: nothing per position

    def test_an_empty_zero_window_is_refused_before_the_budget(self, objects):
        # Span 0 or less passes no budget of -1: EmptyWindow must come first.
        a = objects["A"]
        delta = reduce_morphism(zero_morphism(a, a))
        for p_max in (0, -1):
            with pytest.raises(EmptyWindow):
                graded_nullhomotopy_window(delta, 0, p_max, budget=-1)

    def test_single_position_window_rejected(self, objects):
        a = objects["A"]
        delta = reduce_morphism(identity_morphism(a))
        for p_max in (0, -1):
            with pytest.raises(EmptyWindow):
                graded_nullhomotopy_window(delta, 0, p_max)

    def test_identity_chain_map_not_nullhomotopic(self, objects):
        # Control: the identity of a nontrivial complex admits no
        # nullhomotopy, so the window solver must report unsolvable.
        a = objects["A"]
        delta = reduce_morphism(identity_morphism(a))
        win = graded_nullhomotopy_window(delta, 0, 6)
        assert not win.solvable

    def test_equation_without_rows_is_solved_by_zero(self):
        # The equation at position 1 lives in degree 4, where QQ[x]/(x^4)
        # is zero, so it has no rows; sigma = 0 solves it.
        delta = _over_x4(("x", "x^3"), ("x^3", "x"), "x^2", "0")
        win = graded_nullhomotopy_window(delta, 0, 1)
        assert (win.solvable, win.positions, win.verified_positions) == (True, [0, 1], [1])
        assert all(d.is_zero() for d in win.diagonals)
        assert graded_nullhomotopy_window(delta, 0, 2).solvable

    def test_diagonals_of_negative_degree_are_zero(self):
        # x^2 times the identity of (x, x^3): the even diagonals would have
        # degree -1, and the odd ones are x.
        delta = _over_x4(("x", "x^3"), ("x", "x^3"), "x^2", "x^2")
        win = graded_nullhomotopy_window(delta, 0, 3)
        assert win.solvable and win.verified_positions == [1, 2, 3]
        assert [d.format_rows() for d in win.diagonals] == [["[0]"], ["[x]"]] * 2

    def test_target_off_the_twist_rejected(self):
        # The twist is 4, but the target's entry degrees add up to 6.
        delta = _over_x4(("x", "x^3"), ("x^3", "x^3"), "x^2", "0")
        with pytest.raises(NotHomogeneous):
            graded_nullhomotopy_window(delta, 0, 2)

    def test_components_forcing_different_diagonal_degrees_rejected(self):
        # Over QQ[x,y]/(x*y), (x, y^2): (x, y) -> (y, x) is a chain map, as
        # each product vanishes, but f asks for even diagonals of degree
        # 1 - 1 = 0 and g for degree 2 - 1 = 1.
        from mfkit.fields import QQ
        from mfkit.poly import PolyRing
        from mfkit.tower import build_tower

        ring = PolyRing(("x", "y"), QQ)
        tower = build_tower(ring, [ring.parse("x*y")], [1])

        def one(s):
            return mat(tower, [[s]], Level.QUOT)

        source, target = verify_mf(one("x"), one("y")), verify_mf(one("y"), one("x"))
        delta = verify_morphism(source, target, one("x"), one("y^2"))
        with pytest.raises(NotHomogeneous, match="inconsistent with the twists"):
            graded_nullhomotopy_window(delta, 0, 2)

    def test_second_call_reuses_the_towers_normal_forms(self, monkeypatch):
        import mfkit.tower

        mf = koszul_mf(2)  # a fresh tower
        tower = mf.tower
        delta = window_delta(mf, random.Random(72))
        calls = []
        normal_form = mfkit.tower.normal_form
        monkeypatch.setattr(mfkit.tower, "normal_form",
                            lambda p, basis: calls.append(p) or normal_form(p, basis))

        def counted():
            calls.clear()
            result = (graded_acyclicity_window(reduce_object(mf), 0, 4),
                      graded_nullhomotopy_window(delta, 0, 4))
            return result, len(calls)

        table = tower._tables[Level.QUOT]

        def reduced():  # entries that took a reduction
            return sum(1 for m, image in table.items() if image != ({m: 1}, 1))

        before = reduced()
        (report, win), first = counted()
        entries = len(table)
        (report2, win2), second = counted()
        # The first calls reduced each new monomial that a leading
        # monomial divides, once; the second found every one in the table.
        assert first == reduced() - before > 0
        assert len(table) == entries
        assert second == 0
        assert (report2.rows, report2.dual_rows) == (report.rows, report.dual_rows)
        assert win.solvable and win2.diagonals == win.diagonals


class TestGradedSystem:
    def test_terms_outside_the_equations_degree_rejected(self):
        from mfkit.periodic import _GradedSystem

        delta = _over_x4(("x", "x^3"), ("x", "x^3"), "x^2", "x^2")
        phi, psi = delta.source.phi, delta.source.psi
        system = _GradedSystem(delta.tower)
        x1, x0 = system.unknown(1, 1, 1), system.unknown(1, 1, 0)
        # x * (degree 1) has degree 2, not 3.
        with pytest.raises(NotHomogeneous, match="product"):
            system.equation(delta.f, 3, [(phi, x1)])
        with pytest.raises(NotHomogeneous, match="product"):
            system.equation(delta.f, 3, [], [(x1, phi)])
        # The products have degree 3, but delta.f == x^2 has degree 2.
        with pytest.raises(NotHomogeneous, match="equation entry"):
            system.equation(delta.f, 3, [(psi, x0)])

    def test_each_graded_map_is_built_once(self, monkeypatch):
        from mfkit import periodic
        from mfkit.periodic import _GradedSystem

        # Positions 0..6 give six equations of two terms each, over two
        # operands per side and one unknown degree per operand.
        delta = window_delta(koszul_mf(2), random.Random(73))
        built, rows = [], []
        graded_map, solve, equation = periodic._graded_map, _GradedSystem.solve, _GradedSystem.equation
        monkeypatch.setattr(periodic, "_graded_map", lambda *a: built.append(a) or graded_map(*a))
        monkeypatch.setattr(_GradedSystem, "solve",
                            lambda self: rows.append(list(self._rows)) or solve(self))
        window = graded_nullhomotopy_window(delta, 0, 6)
        assert len(built) == 4
        # With the cache emptied before each equation, every term builds
        # its own map, and the rows and the solution are the same.
        monkeypatch.setattr(_GradedSystem, "equation",
                            lambda self, *a: self._maps.clear() or equation(self, *a))
        uncached = graded_nullhomotopy_window(delta, 0, 6)
        assert len(built) == 4 + 12
        assert rows[0] == rows[1]
        assert window.solvable and uncached.diagonals == window.diagonals

    @pytest.mark.parametrize("name", ["koszul-2-qq", "koszul-2-fp:32003", "koszul-3-qq",
                                      "koszul-3-fp:32003", "F-qq", "F-fp:32003", "scaled-fp:7"])
    def test_rows_are_canonical(self, name, monkeypatch):
        from mfkit.fields import field_from_name
        from mfkit.periodic import _GradedSystem
        from mfkit.workbench import load_workbench

        from .conftest import CORPUS_DIR
        from .reference_poly import assert_canonical_row

        kind, rest = name.split("-", 1)
        if kind == "koszul":
            n, field_name = rest.split("-", 1)
            mf = koszul_mf(int(n), field_from_name(field_name))
        elif kind == "scaled":
            mf = _scaled_fp7_mf()
        else:
            mf = load_workbench(str(CORPUS_DIR / "fractional.mfw"), rest).get_mf("F")
        field = mf.tower.ring.field
        systems = []
        solve = _GradedSystem.solve
        monkeypatch.setattr(_GradedSystem, "solve", lambda self: systems.append(self) or solve(self))
        window = graded_nullhomotopy_window(window_delta(mf, random.Random(74)), 0, 3)
        assert window.solvable and len(systems) == 1
        rows = systems[0]._rows
        assert rows and any(b for _, b in rows)
        for eq, b in rows:
            assert_canonical_row(eq, field)
            assert type(b) is int and b == field.reduce_int(b)

    @pytest.mark.parametrize("field_name", ["qq", "fp:7"])
    def test_two_terms_on_one_unknown_cancel(self, field_name):
        from mfkit.fields import field_from_name
        from mfkit.periodic import _GradedSystem
        from mfkit.poly import PolyRing
        from mfkit.tower import build_tower

        # x@X + X@(-x) == 0 for a 1x1 unknown X of degree 1: each
        # coefficient is 1 + (-1), over GF(7) the ints 1 + 6, and no
        # zero may be stored.
        ring = PolyRing(("x", "y"), field_from_name(field_name))
        tower = build_tower(ring, [ring.parse("x*y")], [1])
        a = mat(tower, [["x"]], Level.QUOT)
        b = mat(tower, [["-x"]], Level.QUOT)
        zero = RingMatrix.zeros(tower, Level.QUOT, 1, 1)
        system = _GradedSystem(tower)
        x = system.unknown(1, 1, 1)
        system.equation(zero, 2, [(a, x)], [(x, b)])
        assert len(system._rows) == 2
        assert all(eq == {} and rhs == 0 for eq, rhs in system._rows)
        assert system.solve() == [zero]

    def test_right_hand_sides_are_reduced(self):
        from mfkit.periodic import _GradedSystem

        # c = 2*x^2 is not in QUOT normal form: x^2 = 4*y^2, so the
        # right-hand side of the y^2 equation is 2*4 = 8, stored as 1.
        tower = _scaled_fp7_mf().tower
        system = _GradedSystem(tower)
        x = system.unknown(1, 1, 1)
        system.equation(mat(tower, [["2*x^2"]]), 2, [(mat(tower, [["x"]], Level.QUOT), x)])
        piece = tower.standard_monomials(2)  # x*y and y^2
        y2 = piece.index(tower.ring.parse("y^2").leading_monomial(tower.order))
        assert [rhs for _, rhs in system._rows] == [int(k == y2) for k in range(len(piece))]

    def test_solution_is_reverified(self, monkeypatch):
        import types

        from mfkit import periodic
        from mfkit.errors import VerificationFailure

        # The odd diagonals are the only unknowns, and x solves; a solver
        # that answers 2 for every variable gives 2*x, which does not.
        wrong = types.SimpleNamespace(solve_linear=lambda rows, n, field: ([2] * n, 1))
        monkeypatch.setattr(periodic, "linalg", wrong)
        delta = _over_x4(("x", "x^3"), ("x", "x^3"), "x^2", "x^2")
        with pytest.raises(VerificationFailure, match="re-verification"):
            graded_nullhomotopy_window(delta, 0, 3)


def _over_x4(src, tgt, f, g):
    """A reduced chain map over QQ[x]/(x^4) between 1x1 complexes given
    as (phi, psi) entry strings."""
    from mfkit.fields import QQ
    from mfkit.poly import PolyRing
    from mfkit.tower import build_tower

    ring = PolyRing(("x",), QQ)
    tower = build_tower(ring, [ring.parse("x^4")], [1])

    def one(s):
        return mat(tower, [[s]], Level.QUOT)

    source, target = (MatrixFactorization(one(phi), one(psi)) for phi, psi in (src, tgt))
    return MfMorphism(source, target, one(f), one(g))


class TestPrimeFieldEndToEnd:
    def test_transport_and_windows_over_f5(self):
        from mfkit.fields import PrimeField
        from mfkit.poly import PolyRing
        from mfkit.tower import build_tower

        ring = PolyRing(("u", "v"), PrimeField(5))
        tower = build_tower(ring, [ring.parse("u*v")], [1])
        a = verify_mf(mat(tower, [["u"]]), mat(tower, [["v"]]))
        th = verify_morphism(a, a, mat(tower, [["u*v"]]), mat(tower, [["u*v"]]))
        inp = HomotopyTransportInput(
            th, mat(tower, [["v"]]), mat(tower, [["0"]]), mat(tower, [["v"]])
        )
        h = transport_nullhomotopy(inp)
        assert h.s == mat(tower, [["v"]])
        assert graded_acyclicity_window(reduce_object(a), 0, 4).all_zero
        assert graded_nullhomotopy_window(reduce_morphism(th), 0, 4).solvable


def _scaled_fp7_mf():
    """A rank-2 factorization of x^2 + 3*y^2 over GF(7) whose entries
    carry coefficients other than 1: at QUOT, x^2 = 4*y^2, so 2*x times
    the standard monomial x*y^k has the coefficient 2*4 = 8, past 7
    until it is reduced."""
    from mfkit.fields import PrimeField
    from mfkit.poly import PolyRing
    from mfkit.tower import build_tower

    ring = PolyRing(("x", "y"), PrimeField(7))
    tower = build_tower(ring, [ring.parse("x^2 + 3*y^2")], [1])
    return verify_mf(mat(tower, [["2*x", "-y"], ["3*y", "4*x"]]),
                     mat(tower, [["4*x", "y"], ["-3*y", "2*x"]]))


def _graded_case(name, objects):
    """(complex, top source degree) for the graded-map differential test."""
    from mfkit.fields import QQ, PrimeField
    from mfkit.poly import PolyRing
    from mfkit.tower import build_tower

    if name.startswith("koszul"):
        _, n, field = name.split("-", 2)
        mf = koszul_mf(int(n), QQ if field == "qq" else PrimeField(int(field[3:])))
        return reduce_object(mf), 4 if n == "2" else 3
    if name in ("A", "B", "C"):
        return reduce_object(objects[name]), 5
    if name == "fractions":
        return reduce_object(fractions_mf()), 4
    if name == "scaled-fp:7":
        return reduce_object(_scaled_fp7_mf()), 5
    # w = x*(2*x + 3*y): at QUOT, x^2 = -3/2*x*y, so (2*x + 3*y)*x == 0
    # and the products' normal forms cancel term by term; over GF(7) the
    # sums of the entry's two terms also leave [1, 7) before reduction.
    ring = PolyRing(("x", "y"), PrimeField(7) if name == "cancelling-fp:7" else QQ)
    tower = build_tower(ring, [ring.parse("2*x^2 + 3*x*y")], [1])
    return reduce_object(verify_mf(mat(tower, [["x"]]), mat(tower, [["2*x + 3*y"]]))), 5


@pytest.mark.parametrize("name", [
    "koszul-2-qq", "koszul-2-fp:32003", "koszul-3-qq", "koszul-3-fp:32003",
    "A", "B", "C", "fractions", "cancelling", "cancelling-fp:7", "scaled-fp:7",
])
def test_graded_map_matches_reference_loop(name, objects):
    from mfkit import periodic

    from . import reference_periodic
    from .reference_poly import RefField, assert_canonical_row

    c, top = _graded_case(name, objects)
    tower = c.tower
    maps = [c.phi, c.psi, c.phi.transpose(), c.psi.transpose()]
    nonzero = 0
    for d in range(top, -2, -1):
        for m in maps:
            e = periodic._uniform_entry_degree(m)
            images, den, src_dim, tgt_dim = periodic._graded_map(tower, m, d, e)
            ref = RefField(tower.ring.field)
            got = [{k: c for k, v in image.items() if (c := ref.of(v, den))} for image in images]
            assert (got, src_dim, tgt_dim) == reference_periodic.graded_map(tower, m, d, e)
            for image in images:
                assert_canonical_row(image, tower.ring.field)
            nonzero += sum(map(bool, got))
    assert nonzero


@pytest.mark.parametrize("name", ["koszul-2-qq", "koszul-3-qq", "koszul-3-fp:32003", "cancelling",
                                  "cancelling-fp:7", "scaled-fp:7", "fractions"])
def test_row_table_entries_are_the_normal_forms_of_their_products(name, objects):
    from fractions import Fraction

    c, top = _graded_case(name, objects)
    tower = c.tower
    graded_acyclicity_window(c, 0, top)
    assert tower._quot_rows
    for (mono, degree), (row, den) in tower._quot_rows.items():
        monos = tower.standard_monomials(degree)
        assert len(row) == len(monos)
        dens = []
        for coords, m in zip(row, monos):
            expected, d = tower.quot_coords(mono + m)
            assert [(t, Fraction(v, den)) for t, v in coords] == [
                (t, Fraction(v, d)) for t, v in expected]
            dens.append(d)
        assert den == math.lcm(*dens)


def _window_case(name, objects):
    """A reduced complex for the window differential test."""
    from mfkit.fields import QQ, field_from_name
    from mfkit.poly import PolyRing
    from mfkit.tower import build_tower
    from mfkit.workbench import load_workbench

    from .conftest import CORPUS_DIR

    if name.startswith("koszul"):
        _, n, field_name = name.split("-", 2)
        return reduce_object(koszul_mf(int(n), field_from_name(field_name)))
    if name in ("A", "B", "C"):
        return reduce_object(objects[name])
    if name.startswith("F-"):
        bench = load_workbench(str(CORPUS_DIR / "fractional.mfw"), name[2:])
        return reduce_object(bench.get_mf("F"))
    ruv = PolyRing(("u", "v"), QQ)
    uv = build_tower(ruv, [ruv.parse("u*v")], [1])
    if name == "contractible":
        # phi of degree 0; psi = w reduces to zero.
        return reduce_object(verify_mf(mat(uv, [["1"]]), mat(uv, [["u*v"]])))
    if name == "unit-block":
        # phi of degree 0 beside a nonzero psi of degree 2: at each source
        # degree, psi reads the image of phi on the same degree.
        return MatrixFactorization(mat(uv, [["1", "0"], ["0", "0"]], Level.QUOT),
                                   mat(uv, [["0", "0"], ["0", "u^2"]], Level.QUOT))
    # w is a zerodivisor modulo the mid ideal, so the complexes are not
    # exact; phi@psi == w*1 still holds, so each image lies in a kernel.
    rxyz = PolyRing(("x", "y", "z"), QQ)
    if name == "zerodivisor-x2":
        tower = build_tower(rxyz, [rxyz.parse("x^2"), rxyz.parse("x*y")], [1, 0],
                            allow_unchecked=True)
        return reduce_object(verify_mf(mat(tower, [["x"]]), mat(tower, [["x"]])))
    tower = build_tower(rxyz, [rxyz.parse("x*z"), rxyz.parse("y*z")], [1, 0],
                        allow_unchecked=True)
    return reduce_object(verify_mf(mat(tower, [["x", "y"], ["0", "z"]]),
                                   mat(tower, [["z", "-y"], ["0", "x"]])))


WINDOW_CASES = [
    *((f"koszul-{n}-{field}", window) for field in ("qq", "fp:32003", "fp:7")
      for n, window in (("2", (0, 6)), ("2", (3, 6)), ("3", (0, 3)), ("3", (2, 3)))),
    *((name, window) for name in ("A", "B", "C", "F-qq", "F-fp:32003", "contractible",
                                  "unit-block", "zerodivisor-x2", "zerodivisor-xz")
      for window in ((0, 5), (2, 5))),
]


@pytest.mark.parametrize("name,window", WINDOW_CASES, ids=[f"{n}-{a}..{b}" for n, (a, b) in WINDOW_CASES])
def test_window_rows_match_full_row_reference(name, window, objects):
    from . import reference_periodic

    c = _window_case(name, objects)
    report = graded_acyclicity_window(c, *window)
    assert report.rows == reference_periodic.window_rows(c, *window)
    assert report.dual_rows == reference_periodic.window_rows(dual_mf(c), *window)
    if name.startswith("zerodivisor") and window[0] == 0:
        assert not report.all_zero


def test_graded_map_skips_the_given_sources(objects):
    from mfkit import periodic

    from .reference_poly import RefField

    c = reduce_object(koszul_mf(2))
    ref = RefField(c.tower.ring.field)
    full, den, src_dim, tgt_dim = periodic._graded_map(c.tower, c.phi, 2, 1)
    skip = set(range(0, src_dim, 3))
    part, part_den, *dims = periodic._graded_map(c.tower, c.phi, 2, 1, skip)
    assert dims == [src_dim, tgt_dim]
    assert [{k: ref.of(v, part_den) for k, v in image.items()} for image in part] == [
        {k: ref.of(v, den) for k, v in image.items()}
        for index, image in enumerate(full) if index not in skip
    ]


@pytest.mark.parametrize("n,window,rows", [(3, (0, 3), 896), (2, (0, 6), 672)])
def test_window_eliminates_only_rows_outside_the_known_image(n, window, rows, monkeypatch):
    from mfkit import linalg

    # Each rank is taken on a complement of the other differential's
    # image. The complex is exact, so that image is the whole kernel and,
    # above the lowest source degrees, a rank r is taken on r rows. With
    # every source element entering, the windows rank 1232 and 1120 rows.
    ranked = []
    rank = linalg.matrix_rank
    monkeypatch.setattr(
        linalg, "matrix_rank", lambda images, *a: ranked.append(len(images)) or rank(images, *a)
    )
    report = graded_acyclicity_window(reduce_object(koszul_mf(n)), *window)
    assert report.all_zero
    assert sum(ranked) == rows


@functools.cache
def _corpus_over(field_name):
    from mfkit.fields import field_from_name

    field = field_from_name(field_name)
    objects = build_corpus_objects(build_corpus_towers(field))
    objects["koszul-3"] = koszul_mf(3, field)
    return objects


def _lifting_inputs(a, rng):
    """A transport triple (theta, s1, t, s2) and a lift window (g1, f0, g0)
    on the square factorization a, each perturbed by multiples of w."""
    tower = a.tower
    th, s, t = rand_nullhomotopic_morphism(a, a, rng)
    d = [rand_matrix(tower, rng, a.rank_f, a.rank_f, 1).scale(tower.w) for _ in range(3)]
    return (th, s + d[0], t + d[1], s + d[2]), (th.g + d[0], th.f + d[1], th.g + d[2])


LIFTING_CASES = pytest.mark.parametrize("name", ["A", "B", "C", "D", "koszul-3"])
LIFTING_FIELDS = pytest.mark.parametrize("field_name", ["qq", "fp:32003"])


@LIFTING_FIELDS
@LIFTING_CASES
def test_lifting_matches_check_then_recompute_reference(name, field_name):
    from . import reference_periodic as ref

    a = _corpus_over(field_name)[name]
    rng = random.Random(49)
    nonzero = False
    for _ in range(3):
        (th, s1, t, s2), (g1, f0, g0) = _lifting_inputs(a, rng)
        h = transport_nullhomotopy(HomotopyTransportInput(th, s1, t, s2))
        h_ref = ref.transport_nullhomotopy(th, s1, t, s2)
        assert (h.s, h.t) == (h_ref.s, h_ref.t)
        theta, witness = lift_chain_map(ChainLiftInput(a, a, g1, f0, g0))
        theta_ref, witness_ref = ref.lift_chain_map(a, a, g1, f0, g0)
        assert (theta.f, theta.g) == (theta_ref.f, theta_ref.g)
        assert witness == witness_ref  # all four fields
        nonzero = nonzero or not (witness.phi_gap.is_zero() or witness.psi_gap.is_zero())
    assert nonzero


@LIFTING_FIELDS
@LIFTING_CASES
def test_broken_lifting_inputs_raise_the_reference_message(name, field_name):
    from . import reference_periodic as ref

    a = _corpus_over(field_name)[name]
    (th, s1, t, s2), (g1, f0, g0) = _lifting_inputs(a, random.Random(50))
    # s2 enters only the f-defect and s1 only the g-defect; g0 only the
    # phi-square and g1 only the psi-square. Adding the identity adds
    # -phi1, -phi2 or psi2 to a defect, none of which vanishes over the
    # quotient.
    e = RingMatrix.identity(a.tower, Level.MID, a.rank_f)
    for want, args in (
        ("f - s2@phi1", (th, s1, t, s2 + e)),
        ("g - t@psi1", (th, s1 + e, t, s2)),
        ("f - s2@phi1", (th, s1 + e, t, s2 + e)),
    ):
        with pytest.raises(NotDivisible) as got:
            HomotopyTransportInput(*args)
        with pytest.raises(NotDivisible) as expected:
            ref.transport_nullhomotopy(*args)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(want)
    for want, args in (
        ("phi2@f0", (g1, f0, g0 + e)),
        ("psi2@g1", (g1 + e, f0, g0)),
        ("phi2@f0", (g1 + e, f0, g0 + e)),
    ):
        with pytest.raises(NotDivisible) as got:
            ChainLiftInput(a, a, *args)
        with pytest.raises(NotDivisible) as expected:
            ref.lift_chain_map(a, a, *args)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(want)


@pytest.mark.parametrize("field_name", ["qq", "fp:32003"])
def test_lifting_defects_take_no_matrix_products(monkeypatch, field_name):
    # Each defect entry is one sum of products and one normal form; the
    # quotients equal those of the product-by-product defects.
    from mfkit import periodic

    a = _corpus_over(field_name)["koszul-3"]
    (th, s1, t, s2), (g1, f0, g0) = _lifting_inputs(a, random.Random(52))
    src = tgt = a
    tower = a.tower
    expected = [
        periodic._divide_matrix(tower, th.f - s2 @ src.phi - tgt.psi @ t, ""),
        periodic._divide_matrix(tower, th.g - t @ src.psi - tgt.phi @ s1, ""),
        periodic._divide_matrix(tower, tgt.phi @ f0 - g0 @ src.phi, ""),
        periodic._divide_matrix(tower, tgt.psi @ g1 - f0 @ src.psi, ""),
    ]

    def no_products(*args):
        raise AssertionError("matrix product in a lifting input")

    monkeypatch.setattr(RingMatrix, "__matmul__", no_products)
    transport = HomotopyTransportInput(th, s1, t, s2)
    lift = ChainLiftInput(a, a, g1, f0, g0)
    assert [transport.p_corr, transport.q_corr, lift.phi_gap, lift.psi_gap] == expected


def test_lift_chain_map_normal_form_count(monkeypatch, objects):
    # Each identity, correction and square of the 2x2 lift on B is one
    # normal form per entry: 48 calls, where one normal form per product
    # entry takes 72. Of those, 8 reduce phi and psi to QUOT for the
    # witness identity; the factorization keeps them, so a second lift
    # takes 40. A fresh B, so that no earlier test has reduced it.
    from mfkit.tower import RingTower

    b = MatrixFactorization(objects["B"].phi, objects["B"].psi)
    _, (g1, f0, g0) = _lifting_inputs(b, random.Random(51))
    lift = ChainLiftInput(b, b, g1, f0, g0)
    calls = []
    normal_form = RingTower.normal_form

    def counting(self, p, level):
        calls.append(level)
        return normal_form(self, p, level)

    monkeypatch.setattr(RingTower, "normal_form", counting)
    first = lift_chain_map(lift)
    assert len(calls) == 48
    calls.clear()
    assert lift_chain_map(lift) == first
    assert len(calls) == 40


def test_lifting_algorithms_reuse_the_inputs_quotients(monkeypatch, objects):
    from mfkit.groebner import DivisionOracle

    calls = []
    divide = DivisionOracle.divide

    def counting_divide(self, p):
        calls.append(p)
        return divide(self, p)

    monkeypatch.setattr(DivisionOracle, "divide", counting_divide)
    b = objects["B"]
    (th, s1, t, s2), (g1, f0, g0) = _lifting_inputs(b, random.Random(51))
    transport = HomotopyTransportInput(th, s1, t, s2)
    lift = ChainLiftInput(b, b, g1, f0, g0)
    assert calls  # the constructors divide the defects
    calls.clear()
    transport_nullhomotopy(transport)
    lift_chain_map(lift)
    assert calls == []


@pytest.mark.parametrize("name", ["B", "koszul-2"])
def test_identities_build_no_negated_or_subtracted_matrices(monkeypatch, objects, name):
    # Every defect, correction and checked identity is one signed
    # combination: no RingMatrix negation inside the lifting algorithms,
    # the morphism and homotopy checks or a window solve, and one
    # subtraction, the lead of lift_chain_map's witness identity, which
    # crosses from MID to QUOT.
    a = objects["B"] if name == "B" else koszul_mf(2)
    rng = random.Random(57)
    (th, s1, t, s2), (g1, f0, g0) = _lifting_inputs(a, rng)
    th_null, s, t_null = rand_nullhomotopic_morphism(a, a, rng)
    zero = zero_morphism(a, a)
    delta = window_delta(a, rng)
    calls = []
    for op in ("__neg__", "__sub__"):
        original = getattr(RingMatrix, op)

        def counting(self, *args, op=op, original=original):
            calls.append(op)
            return original(self, *args)

        monkeypatch.setattr(RingMatrix, op, counting)

    def counted(call):
        calls.clear()
        result = call()
        return result, sorted(calls)

    transport, used = counted(lambda: HomotopyTransportInput(th, s1, t, s2))
    assert used == []
    assert counted(lambda: transport_nullhomotopy(transport))[1] == []
    lift, used = counted(lambda: ChainLiftInput(a, a, g1, f0, g0))
    assert used == []
    assert counted(lambda: lift_chain_map(lift))[1] == ["__sub__"]
    assert counted(lambda: verify_morphism(a, a, th.f, th.g))[1] == []
    assert counted(lambda: verify_homotopy(th_null, zero, s, t_null))[1] == []
    window, used = counted(lambda: graded_nullhomotopy_window(delta, 0, 2))
    assert window.solvable and used == []
