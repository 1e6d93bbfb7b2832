"""Matrix factorizations: axioms, morphisms, homotopies, constructions."""

import random

import pytest

from mfkit.errors import (
    AxiomViolation,
    CommutationViolation,
    DimensionMismatch,
    EndpointMismatch,
    HomotopyViolation,
    LevelMismatch,
    TowerMismatch,
)
from mfkit.mfcat import (
    MatrixFactorization,
    MfHomotopy,
    MfMorphism,
    coker_presentation,
    compose_morphisms,
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
from mfkit.tower import Level, RingMatrix, RingTower

from .genutil import rand_derived_object, rand_nullhomotopic_morphism
from .reference_tower import det


def mat(tower, rows, level=Level.MID):
    return RingMatrix.from_strings(tower, level, rows)


class TestVerify:
    def test_uv_object(self, towers):
        t = towers["uv"]
        mf = verify_mf(mat(t, [["u"]]), mat(t, [["v"]]))
        assert mf.rank_f == mf.rank_g == 1

    def test_square_over_mid_quotient(self, towers):
        # phi = psi = [x] factors x^2 over k[x,y]/(y^2).
        t = towers["two_squares"]
        mf = verify_mf(mat(t, [["x"]]), mat(t, [["x"]]))
        assert mf.phi.entries[0][0] == t.ring.parse("x")

    def test_axiom_violation_located(self, towers):
        t = towers["uv"]
        with pytest.raises(AxiomViolation) as err:
            verify_mf(mat(t, [["u"]]), mat(t, [["u"]]))
        assert (err.value.row, err.value.col) == (0, 0)
        assert err.value.identity == "psi@phi"
        assert err.value.found == "u^2"

    def test_rank_zero_object(self, towers):
        t = towers["uv"]
        z = RingMatrix.zeros(t, Level.MID, 0, 0)
        mf = verify_mf(z, z)
        assert mf.rank_f == 0


class TestLevels:
    def test_quot_factorization_of_zero(self, towers):
        # At QUOT w is 0: (u, v) over k[u,v]/(uv) is a 2-periodic complex.
        t = towers["uv"]
        mf = MatrixFactorization(mat(t, [["u"]], Level.QUOT), mat(t, [["v"]], Level.QUOT))
        assert mf.level == Level.QUOT
        assert identity_morphism(mf).f.level == Level.QUOT
        assert zero_morphism(mf, mf).is_zero()
        assert direct_sum(mf, mf).level == Level.QUOT
        assert mapping_cone(identity_morphism(mf))[0].level == Level.QUOT

    def test_quot_nonzero_composite_is_axiom_violation(self, towers):
        t = towers["uv"]
        with pytest.raises(AxiomViolation) as err:
            MatrixFactorization(mat(t, [["u"]], Level.QUOT), mat(t, [["u"]], Level.QUOT))
        assert (err.value.identity, err.value.expected, err.value.found) == ("psi@phi", "0", "u^2")

    @pytest.mark.parametrize("levels", [
        (Level.MID, Level.QUOT), (Level.QUOT, Level.MID),
    ], ids=["mid-quot", "quot-mid"])
    def test_mixed_levels_rejected(self, towers, levels):
        t = towers["uv"]
        with pytest.raises(LevelMismatch):
            MatrixFactorization(mat(t, [["u"]], levels[0]), mat(t, [["v"]], levels[1]))

    def test_quot_components_over_mid_endpoints_rejected(self, objects):
        b = objects["B"]
        one = identity_morphism(b)
        one_bar = RingMatrix.identity(b.tower, Level.QUOT, 2)
        zero_bar = RingMatrix.zeros(b.tower, Level.QUOT, 2, 2)
        for f, g in ((one_bar, one.g), (one.f, one_bar)):
            with pytest.raises(LevelMismatch):
                MfMorphism(b, b, f, g)
        zero = RingMatrix.zeros(b.tower, Level.MID, 2, 2)
        for s, t in ((zero_bar, zero), (zero, zero_bar)):
            with pytest.raises(LevelMismatch):
                MfHomotopy(one, one, s, t)

    def test_coker_of_quot_factorization_rejected(self, towers):
        t = towers["uv"]
        mf = MatrixFactorization(mat(t, [["u"]], Level.QUOT), mat(t, [["v"]], Level.QUOT))
        with pytest.raises(LevelMismatch, match="MID"):
            coker_presentation(mf)


class TestMorphisms:
    def test_identity_verifies(self, objects):
        for mf in objects.values():
            identity_morphism(mf)

    def test_w_scaled_identity(self, objects):
        a = objects["A"]
        t = a.tower
        th = verify_morphism(a, a, mat(t, [["u*v"]]), mat(t, [["u*v"]]))
        assert th.f.entries[0][0] == t.w

    def test_commutation_violation(self, objects):
        a = objects["A"]
        t = a.tower
        with pytest.raises(CommutationViolation):
            verify_morphism(a, a, mat(t, [["u"]]), mat(t, [["v"]]))

    def test_composition_is_componentwise(self, objects):
        rng = random.Random(31)
        a = objects["B"]
        th1, _, _ = rand_nullhomotopic_morphism(a, a, rng)
        th2, _, _ = rand_nullhomotopic_morphism(a, a, rng)
        comp = compose_morphisms(th2, th1)
        assert comp.f == th2.f @ th1.f
        assert comp.g == th2.g @ th1.g

    def test_each_square_is_one_normal_form_per_entry(self, objects, monkeypatch):
        # Both squares of a 2x2 morphism: 8 normal forms, not one per
        # entry of each of the four products.
        b = objects["B"]
        one = identity_morphism(b)
        calls = []
        normal_form = RingTower.normal_form

        def counting(self, p, level):
            calls.append(level)
            return normal_form(self, p, level)

        monkeypatch.setattr(RingTower, "normal_form", counting)
        MfMorphism(b, b, one.f, one.g)
        assert len(calls) == 8

    def test_component_shapes_are_checked_f_first(self, objects):
        # From A (rank 1) into A + A (rank 2), f and g must be 2x1.
        a = objects["A"]
        t = a.tower
        wide = mat(t, [["0", "0"]])
        with pytest.raises(DimensionMismatch) as err:
            MfMorphism(a, direct_sum(a, a), wide, wide)
        assert str(err.value) == "f must be 2x1, got 1x2"
        with pytest.raises(DimensionMismatch) as err:
            MfMorphism(a, direct_sum(a, a), mat(t, [["0"], ["0"]]), wide)
        assert str(err.value) == "g must be 2x1, got 1x2"

    def test_composition_endpoint_check(self, objects):
        with pytest.raises((EndpointMismatch, TowerMismatch)):
            compose_morphisms(identity_morphism(objects["A"]), identity_morphism(objects["C"]))


class TestHomotopies:
    def test_trivial(self, objects):
        a = objects["A"]
        th = identity_morphism(a)
        z = RingMatrix.zeros(a.tower, Level.MID, 1, 1)
        verify_homotopy(th, th, z, z)

    def test_uv_nullhomotopy(self, objects):
        a = objects["A"]
        t = a.tower
        th = verify_morphism(a, a, mat(t, [["u*v"]]), mat(t, [["u*v"]]))
        verify_homotopy(th, zero_morphism(a, a), mat(t, [["v"]]), mat(t, [["0"]]))

    def test_bad_diagonal_rejected(self, objects):
        a = objects["A"]
        t = a.tower
        th = verify_morphism(a, a, mat(t, [["u*v"]]), mat(t, [["u*v"]]))
        with pytest.raises(HomotopyViolation):
            verify_homotopy(th, zero_morphism(a, a), mat(t, [["u"]]), mat(t, [["0"]]))

    def test_diagonal_shapes_are_checked_s_first(self, objects):
        # From A (rank 1) into A + A (rank 2), s and t must be 2x1.
        a = objects["A"]
        t = a.tower
        zero = zero_morphism(a, direct_sum(a, a))
        wide, tall = mat(t, [["0", "0"]]), mat(t, [["0"], ["0"]])
        with pytest.raises(DimensionMismatch) as err:
            MfHomotopy(zero, zero, wide, wide)
        assert str(err.value) == "s must be 2x1, got 1x2"
        with pytest.raises(DimensionMismatch) as err:
            MfHomotopy(zero, zero, tall, wide)
        assert str(err.value) == "t must be 2x1, got 1x2"

    def test_congruence_addition(self, objects):
        # Two homotopies compose additively to one for the outer pair.
        rng = random.Random(32)
        b = objects["B"]
        th1, s1, t1 = rand_nullhomotopic_morphism(b, b, rng)
        th2, s2, t2 = rand_nullhomotopic_morphism(b, b, rng)
        z = zero_morphism(b, b)
        # th1 ~ 0 via (s1,t1) and 0 ~ -th2 via (s2,t2) chain to
        # th1 ~ -th2 via the summed diagonals.
        verify_homotopy(th1, z - th2, s1 + s2, t1 + t2)
        verify_homotopy(th1 + th2, z, s1 + s2, t1 + t2)

    def test_congruence_composition(self, objects):
        rng = random.Random(33)
        b = objects["B"]
        th, s, t = rand_nullhomotopic_morphism(b, b, rng)
        rho, _, _ = rand_nullhomotopic_morphism(b, b, rng)
        z = zero_morphism(b, b)
        # Postcomposition maps the homotopy diagonals through rho.
        verify_homotopy(compose_morphisms(rho, th), z, rho.f @ s, rho.g @ t)
        # Precomposition composes the diagonals with rho on the right.
        verify_homotopy(compose_morphisms(th, rho), z, s @ rho.g, t @ rho.f)


class TestSuspension:
    def test_reads_off_definition(self, objects):
        a = objects["A"]
        s = suspend(a)
        assert s.phi == -a.psi
        assert s.psi == -a.phi

    def test_involution(self, objects):
        for mf in objects.values():
            assert suspend(suspend(mf)) == mf

    def test_two_by_two_suspension_verifies(self, objects):
        suspend(objects["B"])


class TestDirectSum:
    def test_sum_with_zero_object(self, objects):
        a = objects["A"]
        z = RingMatrix.zeros(a.tower, Level.MID, 0, 0)
        zero_obj = verify_mf(z, z)
        assert direct_sum(a, zero_obj) == a

    def test_one_by_one_pair(self, objects):
        a = objects["A"]
        t = a.tower
        summed = direct_sum(a, suspend(suspend(a)))
        assert summed.phi == mat(t, [["u", "0"], ["0", "u"]])

    def test_mixed_rank_sum_verifies(self, objects):
        a, b = objects["A"], objects["B"]
        with pytest.raises(TowerMismatch):
            direct_sum(a, b)
        both = direct_sum(b, suspend(b))
        assert both.rank_f == 4


class TestMappingCone:
    def test_cone_of_zero_is_block_sum(self, objects):
        a = objects["B"]
        cone, _, _ = mapping_cone(zero_morphism(a, a))
        assert cone == direct_sum(suspend(a), a)

    def test_cone_of_identity_matrices(self, objects):
        a = objects["A"]
        t = a.tower
        cone, inc, proj = mapping_cone(identity_morphism(a))
        assert cone.phi == mat(t, [["-v", "0"], ["1", "u"]])
        assert cone.psi == mat(t, [["-u", "0"], ["1", "v"]])

    def test_natural_maps_compose_to_zero(self, objects):
        rng = random.Random(34)
        for name in ("A", "B", "C"):
            a = objects[name]
            for _ in range(10):
                th, _, _ = rand_nullhomotopic_morphism(a, a, rng)
                cone, inc, proj = mapping_cone(th)
                comp = compose_morphisms(proj, inc)
                assert comp.f.is_zero() and comp.g.is_zero()
                assert comp.is_zero()


class TestDual:
    def test_one_by_one_swaps_maps(self, objects):
        a = objects["A"]
        d = dual_mf(a)
        assert d.phi == a.psi.transpose()
        assert d.psi == a.phi.transpose()

    def test_involution(self, objects):
        for mf in objects.values():
            assert dual_mf(dual_mf(mf)) == mf

    def test_two_by_two_transpose(self, objects, monkeypatch):
        b = objects["B"]
        d = dual_mf(b)
        assert d.phi.entries[0][1] == b.psi.entries[1][0]
        # The dual is built and verified on the first call, then kept.
        fresh = MatrixFactorization(b.phi, b.psi)
        verified = []
        verify = MatrixFactorization._verify
        monkeypatch.setattr(
            MatrixFactorization, "_verify", lambda self: verified.append(1) or verify(self)
        )
        assert dual_mf(fresh) is dual_mf(fresh)
        assert len(verified) == 1


class TestCoker:
    def test_uv_presentation(self, objects):
        a = objects["A"]
        pres = coker_presentation(a)
        assert pres.presentation == a.psi.reduce_to(Level.QUOT)
        assert pres.presentation.entries[0][0] == a.tower.ring.parse("v")

    def test_square_presentation(self, objects):
        c = objects["C"]
        pres = coker_presentation(c)
        assert pres.presentation.entries[0][0] == c.tower.ring.parse("x")
        assert pres.det_product == c.tower.ring.parse("x^2")

    def test_rank_zero(self, objects):
        a = objects["A"]
        z = RingMatrix.zeros(a.tower, Level.MID, 0, 0)
        pres = coker_presentation(verify_mf(z, z))
        assert pres.presentation.nrows == 0
        assert pres.det_product == a.tower.ring.one()


class TestDeterminantInvariant:
    def test_product_is_power_of_w(self, objects):
        rng = random.Random(35)
        for name, base in objects.items():
            tower = base.tower
            for _ in range(10):
                obj = rand_derived_object(base, rng)
                product = tower.normal_form(det(obj.phi) * det(obj.psi), Level.MID)
                w_pow = tower.normal_form(tower.w**obj.rank_f, Level.MID)
                assert product in (w_pow, -w_pow)
                assert obj.rank_f == obj.rank_g
