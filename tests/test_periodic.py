"""Reduction functor, lifting algorithms and graded-window oracles."""

import functools
import random

import pytest

from mfkit.errors import BudgetExceeded, EmptyWindow, LevelMismatch, NotDivisible, NotHomogeneous
from mfkit.mfcat import (
    MatrixFactorization,
    MfMorphism,
    direct_sum,
    identity_morphism,
    mapping_cone,
    suspend,
    verify_mf,
    verify_morphism,
    zero_morphism,
)
from mfkit.periodic import (
    ChainLiftInput,
    HomotopyTransportInput,
    dual_reduction_check,
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
    koszul_mf,
    rand_homogeneous_matrix,
    rand_matrix,
    rand_nullhomotopic_morphism,
)


def mat(tower, rows, level=Level.MID):
    return RingMatrix.from_strings(tower, level, rows)


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
        # w's leading coefficient is 2, so QQ normal forms carry halves;
        # the entries carry thirds.
        ring = PolyRing(("x", "y", "z"), QQ)
        tower = build_tower(ring, [ring.parse("2*x*y + z^2")], [1])
        phi = mat(tower, [["2/3*x", "-1/3*z"], ["z", "y"]])
        psi = mat(tower, [["3*y", "z"], ["-3*z", "2*x"]])
        return reduce_object(verify_mf(phi, psi)), 4
    # w = x*(2*x + 3*y): at QUOT, x^2 = -3/2*x*y, so (2*x + 3*y)*x == 0
    # and the products' normal forms cancel term by term.
    ring = PolyRing(("x", "y"), QQ)
    tower = build_tower(ring, [ring.parse("2*x^2 + 3*x*y")], [1])
    return reduce_object(verify_mf(mat(tower, [["x"]]), mat(tower, [["2*x + 3*y"]]))), 5


@pytest.mark.parametrize("name", [
    "koszul-2-qq", "koszul-2-fp:32003", "koszul-3-qq", "koszul-3-fp:32003",
    "A", "B", "C", "fractions", "cancelling",
])
def test_graded_map_matches_reference_loop(name, objects):
    from mfkit import periodic

    from . import reference_periodic

    c, top = _graded_case(name, objects)
    tower = c.tower
    maps = [c.phi, c.psi, c.phi.transpose(), c.psi.transpose()]
    # One table for every map and degree, as a window call shares it.
    table = periodic._QuotNormalForms(tower)
    nonzero = 0
    for d in range(top, -2, -1):
        for m in maps:
            e = periodic._uniform_entry_degree(m)
            got = periodic._graded_map(tower, m, d, e, table)
            assert got == reference_periodic.graded_map(tower, m, d, e)
            nonzero += sum(map(bool, got[0]))
    assert nonzero


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
