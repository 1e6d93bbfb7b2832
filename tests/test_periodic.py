"""Reduction functor, lifting algorithms and graded-window oracles."""

import random

import pytest

from mfkit.errors import BudgetExceeded, EmptyWindow, NotDivisible, NotHomogeneous
from mfkit.mfcat import identity_morphism, verify_mf, verify_morphism, zero_morphism
from mfkit.periodic import (
    ChainLiftInput,
    HomotopyTransportInput,
    PeriodicChainMap,
    PeriodicComplex,
    dual_reduction_check,
    graded_acyclicity_window,
    graded_nullhomotopy_window,
    lift_chain_map,
    reduce_homotopy,
    reduce_morphism,
    reduce_object,
    transport_nullhomotopy,
)
from mfkit.mfcat import compose_morphisms
from mfkit.tower import Level, RingMatrix

from .genutil import koszul_mf, rand_homogeneous_matrix, rand_matrix, rand_nullhomotopic_morphism


def mat(tower, rows, level=Level.MID):
    return RingMatrix.from_strings(tower, level, rows)


class TestReduceObject:
    def test_uv_complex(self, objects):
        c = reduce_object(objects["A"])
        assert c.phi_bar == mat(objects["A"].tower, [["u"]], Level.QUOT)
        assert c.psi_bar == mat(objects["A"].tower, [["v"]], Level.QUOT)
        assert c.twist == 2

    def test_rank_zero(self, objects):
        t = objects["A"].tower
        z = RingMatrix.zeros(t, Level.MID, 0, 0)
        c = reduce_object(verify_mf(z, z))
        assert c.rank_f == 0

    def test_square_complex(self, objects):
        c = reduce_object(objects["C"])
        t = objects["C"].tower
        assert c.phi_bar == c.psi_bar == mat(t, [["x"]], Level.QUOT)
        assert (c.phi_bar @ c.psi_bar).is_zero()


class TestReduceMorphismAndHomotopy:
    def test_identity_reduces_to_identity(self, objects):
        for mf in objects.values():
            cm = reduce_morphism(identity_morphism(mf))
            assert cm.f_bar == RingMatrix.identity(mf.tower, Level.QUOT, mf.rank_f)

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
                assert lhs.f_bar == rhs_f
                assert lhs.g_bar == rhs_g

    def test_homotopy_reduces(self, objects):
        rng = random.Random(42)
        b = objects["B"]
        th, s, t = rand_nullhomotopic_morphism(b, b, rng)
        from mfkit.mfcat import verify_homotopy

        h = verify_homotopy(th, zero_morphism(b, b), s, t)
        reduce_homotopy(h)  # verifies the reduced identities internally


class TestDualReduction:
    def test_corpus_objects(self, objects):
        for mf in objects.values():
            assert dual_reduction_check(mf).matches

    def test_random_derived(self, objects):
        rng = random.Random(43)
        from .genutil import rand_derived_object

        for name in ("A", "B", "C", "D"):
            for _ in range(10):
                obj = rand_derived_object(objects[name], rng)
                assert dual_reduction_check(obj).matches


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
        fake = PeriodicComplex(z, z, 2)
        report = graded_acyclicity_window(fake, 0, 4)
        assert not report.all_zero
        # Every admissible degree carries homology: the quotient ring is
        # nonzero in each degree of the window.
        assert all(r.homology > 0 for r in report.rows)

    def test_inhomogeneous_tower_rejected(self, objects):
        with pytest.raises(NotHomogeneous):
            graded_acyclicity_window(reduce_object(objects["D"]), 0, 4)

    def test_budget(self, objects):
        with pytest.raises(BudgetExceeded):
            graded_acyclicity_window(reduce_object(objects["A"]), 0, 50, budget=10)

    def test_koszul_n4_window_all_zero(self):
        report = graded_acyclicity_window(reduce_object(koszul_mf(4)), 0, 3)
        assert report.all_zero
        assert len(report.rows) == len(report.dual_rows) == 8

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
            eta = PeriodicChainMap(
                reduce_object(b), reduce_object(b),
                inp.f0.reduce_to(Level.QUOT), inp.g0.reduce_to(Level.QUOT),
            )
            delta = reduce_morphism(theta) - eta
            found_nonzero = found_nonzero or not delta.is_zero()
            win = graded_nullhomotopy_window(delta, 0, 6)
            assert win.solvable
        assert found_nonzero  # the certification was not vacuous

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
