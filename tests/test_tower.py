"""Tower construction, validation and matrix algebra over quotients."""

import random

import pytest

import mfkit.groebner as groebner
from mfkit.errors import DimensionMismatch, LevelMismatch, NotDivisible, VerificationFailure, ZeroVector
from mfkit.fields import QQ, PrimeField
from mfkit.groebner import Ideal, buchberger_basis
from mfkit.poly import MonomialOrder, PolyRing, format_canonical
from mfkit.tower import Level, RingMatrix, build_tower, det, validate_ci_presentation

from .genutil import rand_homogeneous_poly, rand_matrix, rand_poly

RXY = PolyRing(("x", "y"), QQ)
RUV = PolyRing(("u", "v"), QQ)


class TestValidate:
    def test_two_squares_regular(self):
        rep = validate_ci_presentation(RXY, [RXY.parse("x^2"), RXY.parse("y^2")])
        assert rep.all_in_square
        assert rep.regular is True
        assert rep.computed_dimension == 0

    def test_degree_one_violates_square(self):
        rep = validate_ci_presentation(RXY, [RXY.parse("x")])
        assert rep.in_square_of_max_ideal == (False,)
        assert not rep.ok

    def test_dependent_pair_not_regular(self):
        rep = validate_ci_presentation(RXY, [RXY.parse("x^2"), RXY.parse("x^2*y")])
        assert rep.all_in_square
        assert rep.regular is False
        assert rep.computed_dimension == 1

    def test_inhomogeneous_is_unchecked(self):
        rep = validate_ci_presentation(RXY, [RXY.parse("x^2"), RXY.parse("y^2 - x^3")])
        assert rep.regular is None
        assert rep.ok  # accepted, flagged as unchecked


class TestBuildTower:
    def test_hypersurface_case(self):
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        assert t.mid_gens == ()
        assert t.mid_basis.polys == ()
        assert [format_canonical(g, t.order) for g in t.quot_basis.polys] == ["u*v"]

    def test_two_squares_first_coordinate(self):
        t = build_tower(RXY, [RXY.parse("x^2"), RXY.parse("y^2")], [1, 0])
        assert t.w == RXY.parse("x^2")
        assert [format_canonical(g, t.order) for g in t.mid_gens] == ["y^2"]
        assert [format_canonical(g, t.order) for g in t.quot_basis.polys] == ["x^2", "y^2"]

    def test_two_squares_second_coordinate(self):
        t = build_tower(RXY, [RXY.parse("x^2"), RXY.parse("y^2")], [0, 1])
        assert t.w == RXY.parse("y^2")
        assert [format_canonical(g, t.order) for g in t.mid_gens] == ["x^2"]

    def test_cusp_completion(self):
        t = build_tower(RXY, [RXY.parse("x^2"), RXY.parse("y^2 - x^3")], [1, 0])
        assert t.w == RXY.parse("x^2")
        assert [format_canonical(g, t.order) for g in t.mid_gens] == ["-x^3 + y^2"]
        assert t.validation.regular is None

    def test_zero_coordinates_rejected(self):
        with pytest.raises(ZeroVector):
            build_tower(RXY, [RXY.parse("x^2"), RXY.parse("y^2")], [0, 0])

    def test_basis_change_reconstructs_generators(self):
        t = build_tower(RXY, [RXY.parse("x^2"), RXY.parse("y^2")], [1, 0])
        seq = [t.w] + list(t.mid_gens)
        for row, expected in zip(t.basis_change, seq):
            combo = RXY.zero()
            for c, g in zip(row, t.seq_gens):
                combo = combo + g.scale(c)
            assert combo == expected

    def test_mixed_coordinates(self):
        t = build_tower(RXY, [RXY.parse("x^2"), RXY.parse("y^2")], [1, 1])
        assert t.w == RXY.parse("x^2 + y^2")
        # Completion keeps the first unit vector, so the mid generator is x^2.
        assert [format_canonical(g, t.order) for g in t.mid_gens] == ["x^2"]
        assert not t.normal_form(t.w, Level.QUOT).terms

    def test_regular_tower_quotient_dimension(self):
        # For a homogeneous regular sequence the deep quotient drops the
        # dimension by the sequence length.
        from mfkit.groebner import Ideal, quotient_dimension

        t = build_tower(RXY, [RXY.parse("x^2"), RXY.parse("y^2")], [1, 0])
        deep = Ideal(tuple(t.mid_gens) + (t.w,), t.order)
        assert quotient_dimension(deep) == RXY.nvars - len(t.seq_gens)


class TestZeroW:
    """Coordinates that make w the zero polynomial."""

    def test_homogeneous_dependent_pair_fails_regularity(self):
        with pytest.raises(VerificationFailure) as exc:
            build_tower(RXY, [RXY.parse("x^2"), RXY.parse("x^2")], [1, -1])
        assert str(exc.value) == (
            "presentation failed validation: generator 0: max-ideal-square membership ok;"
            " generator 1: max-ideal-square membership ok;"
            " regularity: FAILED (quotient dimension 1, expected 0)"
        )

    def test_inhomogeneous_pair_cannot_divide_by_zero(self):
        gens = [RXY.parse("x^2 + x^3"), RXY.parse("x^2 + x^3")]
        with pytest.raises(NotDivisible) as exc:
            build_tower(RXY, gens, [1, -1])
        assert str(exc.value) == "cannot divide by zero"

    def test_unchecked_homogeneous_pair_cannot_divide_by_zero(self):
        gens = [RXY.parse("x^2"), RXY.parse("x^2")]
        with pytest.raises(NotDivisible) as exc:
            build_tower(RXY, gens, [1, -1], allow_unchecked=True)
        assert str(exc.value) == "cannot divide by zero"


RXYZ_BY_FIELD = {f: PolyRing(("x", "y", "z"), f) for f in (QQ, PrimeField(2), PrimeField(32003))}


def _random_tower_inputs(ring, rng, c, max_degree):
    """c generators, homogeneous or not, and nonzero coordinates."""
    if rng.random() < 0.5:
        gens = [rand_homogeneous_poly(ring, rng, rng.randint(2, max_degree)) for _ in range(c)]
    else:
        gens = [rand_poly(ring, rng, max_degree, terms=3) for _ in range(c)]
    while True:
        coords = [rng.randint(-3, 3) for _ in range(c)]
        if any(ring.field.from_int(k) != ring.field.zero for k in coords):
            return gens, coords


@pytest.mark.parametrize("field", list(RXYZ_BY_FIELD), ids=repr)
@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_one_deep_basis_matches_separate_computations(field, kind):
    # The tower reads quot_basis and the regularity check off the division
    # oracle's basis; both must equal what the separate computations give.
    ring = RXYZ_BY_FIELD[field]
    order = getattr(MonomialOrder, kind)(ring.nvars)
    max_degree = 3 if kind == "grevlex" else 2
    rng = random.Random(29)
    draws = 4 if kind == "grevlex" else 3
    built = 0
    for c in (1, 2, 3):
        for _ in range(draws):
            gens, coords = _random_tower_inputs(ring, rng, c, max_degree)
            try:
                t = build_tower(ring, gens, coords, order, allow_unchecked=True)
            except NotDivisible:
                w = ring.zero()
                for k, g in zip(coords, gens):
                    w = w + g.scale(ring.field.from_int(k))
                assert w.is_zero()
                continue
            built += 1
            assert t.quot_basis == buchberger_basis(Ideal(tuple(gens), order))
            assert t.validation == validate_ci_presentation(ring, gens, order)
    assert built >= 3 * draws // 2  # most draws give a nonzero w


@pytest.mark.parametrize("c", [1, 2, 3])
def test_build_tower_runs_buchberger_once_per_ideal(monkeypatch, c):
    ring = RXYZ_BY_FIELD[QQ]
    calls = []
    real = groebner.buchberger_with_reps

    def counting(generators, order):
        calls.append(list(generators))
        return real(generators, order)

    monkeypatch.setattr(groebner, "buchberger_with_reps", counting)
    gens = [ring.parse(t) for t in ("x^2 + y*z", "y^2", "z^2")[:c]]
    t = build_tower(ring, gens, [1] * c)
    assert t.validation.regular is True
    # One run on the mid ideal when there is one, then one on the deep ideal.
    assert len(calls) == 1 + (c >= 2)
    assert calls[-1] == list(t.mid_basis.polys) + [t.w]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=repr)
@pytest.mark.parametrize("where", ["first-w", "last-mid", "tiny"])
def test_perturbed_cofactor_fails_certificate(monkeypatch, field, where):
    ring = RXYZ_BY_FIELD[field]
    real = groebner.buchberger_with_reps

    def perturbed(generators, order):
        polys, reps = real(generators, order)
        reps = [list(r) for r in reps]
        if where == "first-w":
            reps[0][-1] = reps[0][-1] + ring.parse("x")
        elif where == "last-mid":
            reps[-1][0] = reps[-1][0] - ring.one()
        else:
            reps[-1][-1] = reps[-1][-1] + ring.monomial((0, 0, 1), field.ratio(1, 2**40 + 15))
        return polys, [tuple(r) for r in reps]

    monkeypatch.setattr(groebner, "buchberger_with_reps", perturbed)
    gens = [ring.parse("x^2 + y*z"), ring.parse("y^2 - x*z")]
    with pytest.raises(VerificationFailure, match="do not reproduce"):
        build_tower(ring, gens, [1, 2])


class TestRingElt:
    def test_equality_is_normal_form_equality(self):
        t = build_tower(RXY, [RXY.parse("x^2"), RXY.parse("y^2")], [1, 0])
        a = t.parse_elt("x^2 + x", Level.QUOT)
        b = t.parse_elt("x", Level.QUOT)
        assert a == b
        assert t.parse_elt("x^2 + x", Level.MID) != t.parse_elt("x", Level.MID)

    def test_arithmetic_stays_normalized(self):
        t = build_tower(RXY, [RXY.parse("x^2"), RXY.parse("y^2")], [1, 0])
        x = t.parse_elt("x", Level.QUOT)
        assert (x * x).is_zero()
        y = t.parse_elt("y", Level.QUOT)
        assert (x + y) - y == x

    def test_level_mismatch(self):
        t = build_tower(RXY, [RXY.parse("x^2"), RXY.parse("y^2")], [1, 0])
        with pytest.raises(LevelMismatch):
            t.parse_elt("x", Level.QUOT) + t.parse_elt("x", Level.MID)


class TestMatrixAlgebra:
    def test_identity_product(self):
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        m = rand_matrix(t, random.Random(1), 3, 3)
        assert RingMatrix.identity(t, Level.MID, 3) @ m == m

    def test_rotation_pair_multiplies_to_scalar(self):
        t = build_tower(RUV, [RUV.parse("u^2+v^2")], [1])
        a = RingMatrix.from_strings(t, Level.MID, [["u", "v"], ["-v", "u"]])
        b = RingMatrix.from_strings(t, Level.MID, [["u", "-v"], ["v", "u"]])
        expected = RingMatrix.identity(t, Level.MID, 2).scale(RUV.parse("u^2+v^2"))
        assert a @ b == expected
        assert b @ a == expected

    def test_transpose_involution(self):
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        m = rand_matrix(t, random.Random(2), 2, 3)
        assert m.transpose().transpose() == m

    def test_block_assembly(self):
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        a = RingMatrix.from_strings(t, Level.MID, [["u"]])
        z = RingMatrix.zeros(t, Level.MID, 1, 1)
        one = RingMatrix.identity(t, Level.MID, 1)
        blk = RingMatrix.block([[a, z], [one, a]])
        assert blk == RingMatrix.from_strings(t, Level.MID, [["u", "0"], ["1", "u"]])

    def test_dimension_errors(self):
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        a = RingMatrix.from_strings(t, Level.MID, [["u"]])
        b = RingMatrix.from_strings(t, Level.MID, [["u", "v"]])
        with pytest.raises(DimensionMismatch):
            a + b
        with pytest.raises(DimensionMismatch):
            b @ b

    def test_level_errors(self):
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        a = RingMatrix.from_strings(t, Level.MID, [["u"]])
        q = a.reduce_to(Level.QUOT)
        with pytest.raises(LevelMismatch):
            a + q
        with pytest.raises(LevelMismatch):
            q.reduce_to(Level.MID)


class TestReduceLevel:
    def test_zero_matrix(self):
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        z = RingMatrix.zeros(t, Level.MID, 2, 2)
        assert z.reduce_to(Level.QUOT).is_zero()

    def test_w_dies_in_quotient(self):
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        m = RingMatrix.from_strings(t, Level.MID, [["u*v"]])
        assert m.reduce_to(Level.QUOT).is_zero()

    def test_base_to_mid_normal_form(self):
        # Under lex with y most significant the curve equation rewrites
        # y^2 as x^3; under grevlex it would rewrite x^3 instead.
        lex_y = MonomialOrder.lex(2, (1, 0))
        t = build_tower(
            RXY, [RXY.parse("x^2"), RXY.parse("y^2 - x^3")], [1, 0], order=lex_y
        )
        m = RingMatrix.from_strings(t, Level.BASE, [["y^2"]])
        reduced = m.reduce_to(Level.MID)
        assert reduced.entries[0][0] == RXY.parse("x^3")

    def test_reduction_commutes_with_product(self):
        rng = random.Random(3)
        t = build_tower(RXY, [RXY.parse("x^2"), RXY.parse("y^2")], [1, 0])
        for _ in range(50):
            a = rand_matrix(t, rng, 2, 2)
            b = rand_matrix(t, rng, 2, 2)
            lhs = (a @ b).reduce_to(Level.QUOT)
            rhs = a.reduce_to(Level.QUOT) @ b.reduce_to(Level.QUOT)
            assert lhs == rhs


class TestDeterminant:
    def test_empty_matrix(self):
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        assert det(RingMatrix.zeros(t, Level.MID, 0, 0)) == RUV.one()

    def test_two_by_two(self):
        t = build_tower(RUV, [RUV.parse("u^2+v^2")], [1])
        a = RingMatrix.from_strings(t, Level.MID, [["u", "v"], ["-v", "u"]])
        assert det(a) == RUV.parse("u^2 + v^2")

    def test_three_by_three_against_cofactor_oracle(self):
        # Oracle: explicit cofactor expansion written out by hand.
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        rows = [["u", "v", "1"], ["0", "u", "v"], ["1", "0", "u"]]
        m = RingMatrix.from_strings(t, Level.MID, rows)
        u, v, one = RUV.parse("u"), RUV.parse("v"), RUV.one()
        zero = RUV.zero()
        expected = (
            u * (u * u - v * zero)
            - v * (zero * u - v * one)
            + one * (zero * zero - u * one)
        )
        assert det(m) == expected
