"""Tower construction, validation and matrix algebra over quotients."""

import functools
import operator
import random
from fractions import Fraction

import pytest

import mfkit.groebner as groebner
from mfkit.errors import (
    DimensionMismatch,
    LevelMismatch,
    NotDivisible,
    TowerMismatch,
    VerificationFailure,
    ZeroVector,
)
from mfkit.fields import QQ, PrimeField
from mfkit.groebner import Ideal, buchberger_basis
from mfkit.poly import MonomialOrder, PolyRing, format_canonical
from mfkit.tower import (
    Level,
    RingMatrix,
    build_tower,
    matrix_sum_of_products,
    validate_ci_presentation,
)

from . import reference_tower
from .genutil import mat, rand_homogeneous_poly, rand_matrix, rand_poly

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
        # w is the combination w_coords of seq_gens, and the mid
        # generators are seq_gens without the last nonzero coordinate's.
        gens = [RXY.parse("x^2"), RXY.parse("y^2"), RXY.parse("x*y")]
        for coords, last in (([1, 0, 0], 0), ([0, 2, 0], 1), ([1, -1, 0], 1), ([0, 0, 3], 2)):
            t = build_tower(RXY, gens, coords, allow_unchecked=True)
            assert t.mid_gens == tuple(g for i, g in enumerate(gens) if i != last)
            combo = RXY.zero()
            for (num, den), g in zip(t.w_coords, t.seq_gens):
                combo = combo + g.scale(num, den)
            assert combo == t.w

    def test_mixed_coordinates(self):
        t = build_tower(RXY, [RXY.parse("x^2"), RXY.parse("y^2")], [1, 1])
        assert t.w == RXY.parse("x^2 + y^2")
        # Completion keeps the first unit vector, so the mid generator is x^2.
        assert [format_canonical(g, t.order) for g in t.mid_gens] == ["x^2"]
        assert not t.normal_form(t.w, Level.QUOT).nums

    def test_regular_tower_quotient_dimension(self):
        # For a homogeneous regular sequence the deep quotient drops the
        # dimension by the sequence length.
        from mfkit.groebner import Ideal, buchberger_basis, krull_dimension

        t = build_tower(RXY, [RXY.parse("x^2"), RXY.parse("y^2")], [1, 0])
        deep = Ideal(tuple(t.mid_gens) + (t.w,), t.order)
        assert krull_dimension(buchberger_basis(deep), RXY.nvars) == RXY.nvars - len(t.seq_gens)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7)], ids=repr)
def test_mid_gens_match_greedy_completion(field):
    # The closed form picks the mid generators that the greedy unit-vector
    # completion picks, on random nonzero coordinate vectors with zeros.
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 6)
        ring = PolyRing(tuple(f"x{i}" for i in range(n)), field)
        if field is QQ:
            coords = [rng.choice([0, 0, 1, -2, Fraction(rng.randint(-3, 3), rng.randint(1, 3))])
                      for _ in range(n)]
        else:
            coords = [rng.choice([0, 1, rng.randint(-8, 8)]) for _ in range(n)]
        if not any(ring.const(c).nums for c in coords):
            continue
        gens = [ring.var(i) ** 2 for i in range(n)]
        t = build_tower(ring, gens, coords)
        units = reference_tower.complete_to_basis(field, t.w_coords)
        assert t.mid_gens == tuple(gens[i] for i in units)


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
        if any(ring.field.from_int(k) for k in coords):
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

    def counting(generators, order, modulo=None):
        calls.append(list(generators))
        return real(generators, order, modulo)

    monkeypatch.setattr(groebner, "buchberger_with_reps", counting)
    gens = [ring.parse(t) for t in ("x^2 + y*z", "y^2", "z^2")[:c]]
    t = build_tower(ring, gens, [1] * c)
    assert t.validation.regular is True
    # One run on the mid ideal when there is one, then one on the deep ideal.
    assert len(calls) == 1 + (c >= 2)
    assert calls[-1] == list(t.mid_basis.polys) + [t.w]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=repr)
@pytest.mark.parametrize("where", ["first-w", "last-element", "tiny"])
def test_perturbed_cofactor_fails_certificate(monkeypatch, field, where):
    # The oracle certifies b - c*w in (mid) for each combined element b
    # and its w-cofactor c; moving either b or c breaks it.
    ring = RXYZ_BY_FIELD[field]
    real = groebner.buchberger_with_reps

    def perturbed(generators, order, modulo=None):
        polys, column = real(generators, order, modulo)
        if modulo is None:
            return polys, column
        polys, column = list(polys), list(column)
        if where == "first-w":
            column[0] = column[0] + ring.parse("x")
        elif where == "last-element":
            polys[-1] = polys[-1] - ring.one()
        else:
            column[-1] = column[-1] + ring.monomial((0, 0, 1), field.ratio(1, 2**40 + 15))
        return polys, column

    monkeypatch.setattr(groebner, "buchberger_with_reps", perturbed)
    gens = [ring.parse("x^2 + y*z"), ring.parse("y^2 - x*z")]
    with pytest.raises(VerificationFailure, match="do not reproduce"):
        build_tower(ring, gens, [1, 2])


class TestMatrixAlgebra:
    def test_identity_product(self):
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        m = rand_matrix(t, random.Random(1), 3, 3)
        assert RingMatrix.identity(t, Level.MID, 3) @ m == m

    def test_rotation_pair_multiplies_to_scalar(self):
        t = build_tower(RUV, [RUV.parse("u^2+v^2")], [1])
        a = mat(t, [["u", "v"], ["-v", "u"]])
        b = mat(t, [["u", "-v"], ["v", "u"]])
        expected = RingMatrix.identity(t, Level.MID, 2).scale(RUV.parse("u^2+v^2"))
        assert a @ b == expected
        assert b @ a == expected

    def test_transpose_involution(self):
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        m = rand_matrix(t, random.Random(2), 2, 3)
        assert m.transpose().transpose() == m

    def test_block_assembly(self):
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        a = mat(t, [["u"]])
        z = RingMatrix.zeros(t, Level.MID, 1, 1)
        one = RingMatrix.identity(t, Level.MID, 1)
        blk = RingMatrix.block([[a, z], [one, a]])
        assert blk == mat(t, [["u", "0"], ["1", "u"]])

    def test_dimension_errors(self):
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        a = mat(t, [["u"]])
        b = mat(t, [["u", "v"]])
        with pytest.raises(DimensionMismatch):
            a + b
        with pytest.raises(DimensionMismatch):
            b @ b

    def test_level_errors(self):
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        a = mat(t, [["u"]])
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
        m = mat(t, [["u*v"]])
        assert m.reduce_to(Level.QUOT).is_zero()

    def test_base_to_mid_normal_form(self):
        # A matrix built at MID holds the normal forms of its ambient
        # entries. Under lex with y declared first the curve equation
        # rewrites y^2 as x^3; under grevlex it would rewrite x^3 instead.
        ryx = PolyRing(("y", "x"), QQ)
        t = build_tower(
            ryx, [ryx.parse("x^2"), ryx.parse("y^2 - x^3")], [1, 0], order=MonomialOrder.lex(2)
        )
        m = mat(t, [["y^2"]])
        assert m.entries[0][0] == ryx.parse("x^3")

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
        assert reference_tower.det(RingMatrix.zeros(t, Level.MID, 0, 0)) == RUV.one()

    def test_two_by_two(self):
        t = build_tower(RUV, [RUV.parse("u^2+v^2")], [1])
        a = mat(t, [["u", "v"], ["-v", "u"]])
        assert reference_tower.det(a) == RUV.parse("u^2 + v^2")

    def test_three_by_three_against_cofactor_oracle(self):
        # Oracle: explicit cofactor expansion written out by hand.
        t = build_tower(RUV, [RUV.parse("u*v")], [1])
        rows = [["u", "v", "1"], ["0", "u", "v"], ["1", "0", "u"]]
        m = mat(t, rows)
        u, v, one = RUV.parse("u"), RUV.parse("v"), RUV.one()
        zero = RUV.zero()
        expected = (
            u * (u * u - v * zero)
            - v * (zero * u - v * one)
            + one * (zero * zero - u * one)
        )
        assert reference_tower.det(m) == expected


KERNEL_TOWERS = ["qq", "fp2", "fp32003", "cusp", "unit"]


@functools.cache
def kernel_tower(name):
    """Towers for the differential tests of the matrix algebra: graded
    and not, over QQ and prime fields, and one whose mid ideal is the
    unit ideal, where every entry's normal form is 0."""
    if name == "unit":
        return build_tower(RXY, [RXY.parse("x^2"), RXY.one()], [1, 0], allow_unchecked=True)
    if name == "cusp":
        return build_tower(RXY, [RXY.parse("x^2"), RXY.parse("y^2 - x^3")], [1, 0])
    ring = RXYZ_BY_FIELD[{"qq": QQ, "fp2": PrimeField(2), "fp32003": PrimeField(32003)}[name]]
    return build_tower(ring, [ring.parse("x^2 + y*z"), ring.parse("y^2 - x*z")], [1, 2])


def _rational_matrix(tower, rng, nrows, ncols, level):
    """Random entries over assorted denominators, 2^40 + 15 among them."""
    field = tower.ring.field

    def entry():
        den = rng.choice([1, 1, 2, 3, 7, 2**40 + 15])
        if isinstance(field, PrimeField) and den % field.p == 0:
            den = 1
        return rand_poly(tower.ring, rng, 2).scale(1, den)

    return RingMatrix(tower, level, [[entry() for _ in range(ncols)] for _ in range(nrows)],
                      nrows, ncols)


def _operand_pool(tower, level, rng):
    """2x2 matrices from every constructor and operation."""
    a = _rational_matrix(tower, rng, 2, 2, level)
    b = _rational_matrix(tower, rng, 2, 2, level)
    one, one1 = RingMatrix.identity(tower, level, 2), RingMatrix.identity(tower, level, 1)
    corner = _rational_matrix(tower, rng, 1, 1, level)
    return [
        a, b, one, RingMatrix.zeros(tower, level, 2, 2), -a, a.transpose(), a @ b,
        a.scale(tower.ring.parse("x + 1")), one.scale(tower.w),
        RingMatrix.block([[one1, corner], [RingMatrix.zeros(tower, level, 1, 1), one1]]),
        mat(tower, [["x^3", "1"], ["0", "x*y^2"]]).reduce_to(level),
    ]


@pytest.mark.parametrize("level", [Level.MID, Level.QUOT], ids=lambda lv: lv.name)
@pytest.mark.parametrize("name", KERNEL_TOWERS)
def test_matmul_matches_reference_loop(name, level):
    tower = kernel_tower(name)
    rng = random.Random(53)
    for _ in range(20):
        n, k, m = (rng.randint(0, 3) for _ in range(3))
        a = _rational_matrix(tower, rng, n, k, level)
        b = _rational_matrix(tower, rng, k, m, level)
        assert a @ b == reference_tower.matmul(a, b)
    pool = _operand_pool(tower, level, rng)
    for a in pool:
        for b in pool:
            assert a @ b == reference_tower.matmul(a, b)


@pytest.mark.parametrize("level", [Level.MID, Level.QUOT], ids=lambda lv: lv.name)
@pytest.mark.parametrize("name", KERNEL_TOWERS)
def test_matrix_sum_of_products_matches_reference_loop(name, level):
    # lead + sum of a@b against the sum of reference products, over
    # 1-3 terms with mixed inner sizes, empty shapes included.
    tower = kernel_tower(name)
    rng = random.Random(71)
    shapes = [(0, 2), (2, 0), (0, 0), (1, 1), (2, 3), (3, 2), (2, 2), (3, 3)]
    for k, (n, m) in enumerate(shapes * 2):
        products = []
        for _ in range(k % 3 + 1):
            inner = rng.randint(0, 3)
            products.append((_rational_matrix(tower, rng, n, inner, level),
                             _rational_matrix(tower, rng, inner, m, level)))
        expected = functools.reduce(
            operator.add, [reference_tower.matmul(a, b) for a, b in products]
        )
        assert matrix_sum_of_products(products) == expected
        lead = _rational_matrix(tower, rng, n, m, level)
        assert matrix_sum_of_products(products, lead) == lead + expected


def test_matrix_sum_of_products_rejects_mismatched_terms():
    tower, other = kernel_tower("qq"), kernel_tower("fp32003")
    rng = random.Random(73)

    def m(nrows, ncols, level=Level.MID, t=tower):
        return _rational_matrix(t, rng, nrows, ncols, level)

    a, b = m(2, 2), m(2, 3)
    cases = [
        ([(a, m(3, 2))], None, DimensionMismatch),  # the pair does not multiply
        ([(a, m(2, 2, Level.QUOT))], None, LevelMismatch),
        ([(a, m(2, 2, t=other))], None, TowerMismatch),
        ([(a, b), (m(2, 2, t=other), m(2, 3, t=other))], None, TowerMismatch),
        ([(a, b), (m(2, 2, Level.QUOT), m(2, 3, Level.QUOT))], None, LevelMismatch),
        ([(a, b), (m(2, 1), m(1, 2))], None, DimensionMismatch),
        ([(a, b)], m(2, 3, t=other), TowerMismatch),
        ([(a, b)], m(2, 3, Level.QUOT), LevelMismatch),
        ([(a, b)], m(3, 2), DimensionMismatch),
    ]
    for products, lead, error in cases:
        with pytest.raises(error):
            matrix_sum_of_products(products, lead)


@pytest.mark.parametrize("level", [Level.MID, Level.QUOT], ids=lambda lv: lv.name)
@pytest.mark.parametrize("name", KERNEL_TOWERS)
def test_add_matches_normal_form_of_sum(name, level):
    # __add__ does not normalize: every constructor must already have.
    tower = kernel_tower(name)
    pool = _operand_pool(tower, level, random.Random(59))
    for a in pool:
        for b in pool:
            for got, raw in ((a + b, operator.add), (a - b, operator.sub)):
                for i in range(2):
                    for j in range(2):
                        expected = tower.normal_form(raw(a.entries[i][j], b.entries[i][j]), level)
                        assert got.entries[i][j] == expected


@pytest.mark.parametrize("level", [Level.MID, Level.QUOT], ids=lambda lv: lv.name)
@pytest.mark.parametrize("name", KERNEL_TOWERS)
def test_sub_matches_add_of_neg(name, level):
    # __sub__ subtracts entrywise instead of adding a negated copy.
    tower = kernel_tower(name)
    pool = _operand_pool(tower, level, random.Random(67))
    for a in pool:
        for b in pool:
            diff = a - b
            assert diff == a + (-b)
            for i in range(2):
                for j in range(2):
                    p, q = a.entries[i][j], b.entries[i][j]
                    assert diff.entries[i][j] == p - q == p + (-q)
            assert (a - a).is_zero()


@pytest.mark.parametrize("level", [Level.MID, Level.QUOT], ids=lambda lv: lv.name)
def test_identity_is_normalized_on_the_unit_ideal(level):
    t = build_tower(RXY, [RXY.parse("x^2"), RXY.one()], [1, 0], allow_unchecked=True)
    one = RingMatrix.identity(t, level, 2)
    zero = RingMatrix.zeros(t, level, 2, 2)
    assert one == zero
    assert one.is_zero()
    assert one + zero == zero


def test_standard_monomials_and_quot_coords():
    ring = PolyRing(("x", "y"), QQ)
    t = build_tower(ring, [ring.parse("2*x^2 + 3*x*y")], [1])
    assert t.standard_monomials(-1) == []
    assert [ring.exps(m) for m in t.standard_monomials(2)] == [(1, 1), (0, 2)]
    # x^2 == -3/2*x*y at QUOT, and a standard monomial is its own normal form.
    assert t.quot_coords(ring.pack((2, 0))) == ([(0, -3)], 2)
    assert t.quot_coords(ring.pack((0, 2))) == ([(1, 1)], 1)
    # Both come from the QUOT normal-form table, one (nums, den) per monomial.
    x2, xy, y2 = ring.pack((2, 0)), ring.pack((1, 1)), ring.pack((0, 2))
    table = t._tables[Level.QUOT]
    assert (table[x2], table[y2]) == (({xy: -3}, 2), ({y2: 1}, 1))
