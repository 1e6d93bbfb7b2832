"""Buchberger engine: bases, normal forms, cofactors, exact division."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkit.groebner as groebner
from mfkit.errors import FieldMismatch, NotDivisible, NotHomogeneous, VariableMismatch, VerificationFailure
from mfkit.fields import QQ, PrimeField
from mfkit.groebner import (
    DivisionOracle,
    GroebnerBasis,
    Ideal,
    buchberger_basis,
    buchberger_with_reps,
    divide_full,
    exact_divide_by_nzd,
    membership_oracle,
    normal_form,
    quotient_dimension,
    reduce_with_cofactors,
)
from mfkit.poly import MonomialOrder, PolyRing, format_canonical

from . import reference_groebner
from .genutil import rand_homogeneous_poly, rand_poly

RXY = PolyRing(("x", "y"), QQ)
RXYU = PolyRing(("x", "y", "u"), QQ)
GREVLEX2 = MonomialOrder.grevlex(2)
LEX_Y_OVER_X = MonomialOrder.lex(2, (1, 0))


def gb_of(ring, texts, order):
    return buchberger_basis(Ideal(tuple(ring.parse(t) for t in texts), order))


class TestBuchberger:
    def test_empty(self):
        basis = buchberger_basis(Ideal((), GREVLEX2))
        assert basis.polys == ()

    def test_single_monomial(self):
        basis = gb_of(RXY, ["y^2"], GREVLEX2)
        assert [format_canonical(g, GREVLEX2) for g in basis.polys] == ["y^2"]

    def test_cusp_plus_square(self):
        # Hand-run division: x^2 * (y^2 - x^3) - y^2 * x^2 = -x^5 reduces
        # to zero, and interreduction rewrites y^2 - x^3 as y^2 using
        # x * x^2, so the reduced basis is {y^2, x^2}.
        basis = gb_of(RXY, ["y^2 - x^3", "x^2"], LEX_Y_OVER_X)
        assert [format_canonical(g, LEX_Y_OVER_X) for g in basis.polys] == ["y^2", "x^2"]

    def test_determinism(self):
        runs = []
        for _ in range(2):
            basis = gb_of(RXY, ["x^2*y - 1", "x*y^2 - x"], GREVLEX2)
            runs.append(tuple(format_canonical(g, GREVLEX2) for g in basis.polys))
        assert runs[0] == runs[1]

    def test_representation_identity(self):
        rng = random.Random(11)
        for _ in range(25):
            gens = [rand_poly(RXY, rng, max_degree=3, terms=3) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            polys, reps = buchberger_with_reps(gens, GREVLEX2)
            for b, rep in zip(polys, reps):
                combo = RXY.zero()
                for r, g in zip(rep, gens):
                    combo = combo + r * g
                assert combo == b


class TestNormalForm:
    def test_generator_reduces_to_zero(self):
        basis = gb_of(RXY, ["y^2 - x^3"], LEX_Y_OVER_X)
        assert normal_form(RXY.parse("y^2 - x^3"), basis).is_zero()

    def test_single_step(self):
        basis = gb_of(RXY, ["y^2 - x^3"], LEX_Y_OVER_X)
        assert normal_form(RXY.parse("y^2"), basis) == RXY.parse("x^3")

    def test_no_divisible_leading_term(self):
        basis = gb_of(RXY, ["y^2"], GREVLEX2)
        p = RXY.parse("x + 1")
        assert normal_form(p, basis) == p

    def test_idempotent_random(self):
        rng = random.Random(5)
        basis = gb_of(RXY, ["y^2 - x^3", "x^2*y"], GREVLEX2)
        for _ in range(200):
            p = rand_poly(RXY, rng, max_degree=5, terms=4)
            nf = normal_form(p, basis)
            assert normal_form(nf, basis) == nf


class TestCofactors:
    def test_zero_input(self):
        basis = gb_of(RXY, ["y^2 - x^3"], GREVLEX2)
        trace = reduce_with_cofactors(RXY.zero(), basis)
        assert trace.remainder.is_zero()
        assert all(c.is_zero() for c in trace.cofactors)

    def test_single_division(self):
        basis = GroebnerBasis((RXYU.parse("y^2 - x^3"),), MonomialOrder.lex(3, (1, 0, 2)))
        trace = reduce_with_cofactors(RXYU.parse("y^2*u"), basis)
        assert trace.remainder == RXYU.parse("x^3*u")
        assert trace.cofactors == (RXYU.parse("u"),)

    def test_nonmember_untouched(self):
        basis = gb_of(RXY, ["y^2"], GREVLEX2)
        trace = reduce_with_cofactors(RXY.parse("x"), basis)
        assert trace.remainder == RXY.parse("x")
        assert all(c.is_zero() for c in trace.cofactors)

    def test_identity_random(self):
        rng = random.Random(6)
        basis = gb_of(RXY, ["y^2 - x^3", "x^2*y - x"], GREVLEX2)
        for _ in range(200):
            p = rand_poly(RXY, rng, max_degree=5, terms=4)
            trace = reduce_with_cofactors(p, basis)
            recombined = trace.remainder
            for c, g in zip(trace.cofactors, basis.polys):
                recombined = recombined + c * g
            assert recombined == p


class TestExactDivision:
    def test_plain_monomial_division(self):
        empty = GroebnerBasis((), GREVLEX2)
        q = exact_divide_by_nzd(RXY.parse("x^2*y + x*y^2"), RXY.parse("x"), empty)
        assert q == RXY.parse("x*y + y^2")

    def test_division_through_the_ideal(self):
        mid = gb_of(RXY, ["y^2 - x^3"], GREVLEX2)
        q = exact_divide_by_nzd(RXY.parse("y^2"), RXY.parse("x^2"), mid)
        assert q == RXY.parse("x")
        # Round trip: y^2 - x^2 * x lies in the ideal.
        assert normal_form(RXY.parse("y^2") - RXY.parse("x^2") * q, mid).is_zero()

    def test_not_divisible(self):
        empty = GroebnerBasis((), GREVLEX2)
        with pytest.raises(NotDivisible):
            exact_divide_by_nzd(RXY.parse("y"), RXY.parse("x"), empty)

    def test_round_trip_random(self):
        rng = random.Random(7)
        mid = gb_of(RXY, ["y^2 - x^3"], GREVLEX2)
        w = RXY.parse("x^2")
        for _ in range(100):
            a = rand_poly(RXY, rng, max_degree=3, terms=3)
            noise = rand_poly(RXY, rng, max_degree=2, terms=2)
            p = w * a + noise * RXY.parse("y^2 - x^3")
            q = exact_divide_by_nzd(p, w, mid)
            assert normal_form(p - w * q, mid).is_zero()


class TestQuotientDimension:
    def test_zero_ideal(self):
        assert quotient_dimension(Ideal((RXY.zero(),), GREVLEX2)) == 2

    def test_two_squares_is_zero_dimensional(self):
        ideal = Ideal((RXY.parse("x^2"), RXY.parse("y^2")), GREVLEX2)
        assert quotient_dimension(ideal) == 0

    def test_single_product(self):
        assert quotient_dimension(Ideal((RXY.parse("x*y"),), GREVLEX2)) == 1

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            quotient_dimension(Ideal((RXY.parse("y^2 - x^3"),), GREVLEX2))


class TestMembershipOracle:
    def test_agrees_with_normal_form(self):
        rng = random.Random(8)
        for _ in range(25):
            gens = [rand_homogeneous_poly(RXY, rng, rng.randint(1, 3)) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            basis = buchberger_basis(Ideal(tuple(gens), GREVLEX2))
            if rng.random() < 0.5:
                # A member by construction.
                p = RXY.zero()
                for g in gens:
                    p = p + rand_homogeneous_poly(RXY, rng, 1) * g
            else:
                p = rand_homogeneous_poly(RXY, rng, rng.randint(1, 4))
            if p.is_zero():
                continue
            bound = max(p.degree(), 1)
            gb_says = normal_form(p, basis).is_zero()
            oracle_says = membership_oracle(p, gens, bound)
            assert gb_says == oracle_says


def oracle_divide(p, basis):
    return DivisionOracle(basis, RXY.parse("x")).divide(p)


class TestRingChecks:
    @pytest.mark.parametrize("reduce", [normal_form, reduce_with_cofactors])
    def test_field_mismatch(self, reduce):
        # Over fp:7 this used to come back as -6*x*y + 1/2*y.
        basis = gb_of(PolyRing(("x", "y"), PrimeField(7)), ["x^2 - y"], GREVLEX2)
        with pytest.raises(FieldMismatch):
            reduce(RXY.parse("x^3 + 1/2*y"), basis)

    @pytest.mark.parametrize("reduce", [normal_form, reduce_with_cofactors])
    def test_variable_mismatch(self, reduce):
        basis = gb_of(RXY, ["x^2 - y"], GREVLEX2)
        with pytest.raises(VariableMismatch):
            reduce(PolyRing(("a", "b"), QQ).parse("a^3 + b"), basis)

    @pytest.mark.parametrize("reduce", [normal_form, oracle_divide])
    @pytest.mark.parametrize(
        "ring,error",
        [
            (PolyRing(("a", "b"), QQ), VariableMismatch),
            (PolyRing(("x", "y"), PrimeField(7)), FieldMismatch),
        ],
        ids=["variables", "field"],
    )
    def test_zero_from_another_ring(self, reduce, ring, error):
        # Zero is returned without dividing, but its ring is still checked.
        basis = gb_of(RXY, ["x^2 - y"], GREVLEX2)
        with pytest.raises(error):
            reduce(ring.zero(), basis)


# Differential tests against the scan-based reference in
# tests/reference_groebner.py.

DIFF_FIELDS = [QQ, PrimeField(2), PrimeField(32003)]
DIFF_ORDERS = [
    MonomialOrder.lex(3, (2, 0, 1)),
    MonomialOrder.grevlex(3, (1, 2, 0)),
    MonomialOrder.lex(3),
    MonomialOrder.grevlex(3),
]


def rational(field, num, den):
    """num/den in the field; a denominator that vanishes there is dropped."""
    if isinstance(field, PrimeField) and den % field.p == 0:
        den = 1
    return field.ratio(num, den)


def rand_rational_poly(ring, rng, max_degree=3, terms=3):
    """Like `rand_poly`, with num/den coefficients, a few of them with
    denominators up to 2^40."""
    p = ring.zero()
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        den = rng.randint(1, 2**40) if rng.random() < 0.1 else rng.randint(1, 9)
        c = rational(ring.field, rng.randint(-20, 20), den)
        p = p + ring.monomial(tuple(exps), c)
    return p


# Integers in [-5, 5], small fractions, and fractions with numerator and
# denominator up to 2^40; negative leading coefficients come with them.
COEFFICIENTS = st.one_of(
    st.tuples(st.integers(min_value=-5, max_value=5), st.just(1)),
    st.tuples(st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=12)),
    st.tuples(st.integers(min_value=-(2**40), max_value=2**40), st.integers(min_value=1, max_value=2**40)),
)


@st.composite
def ring_polys(draw, ring, max_exp=3, max_terms=5):
    mono = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * ring.nvars)
    terms = draw(st.dictionaries(mono, COEFFICIENTS, max_size=max_terms))
    p = ring.zero()
    for m, (num, den) in terms.items():
        p = p + ring.monomial(m, rational(ring.field, num, den))
    return p


@st.composite
def division_problems(draw):
    ring = PolyRing(("x", "y", "z"), draw(st.sampled_from(DIFF_FIELDS)))
    order = draw(st.sampled_from(DIFF_ORDERS))
    p = draw(ring_polys(ring, max_exp=4, max_terms=8))
    divisors = draw(st.lists(ring_polys(ring, max_exp=2, max_terms=3), min_size=1, max_size=4))
    return p, [d for d in divisors if not d.is_zero()] or [ring.var(0)], order


@given(division_problems())
@settings(max_examples=300, deadline=None)
def test_divide_full_matches_reference(problem):
    p, divisors, order = problem
    rem, cofs = divide_full(p, divisors, order)
    ref_rem, ref_cofs = reference_groebner.divide_full(p, divisors, order)
    assert rem == ref_rem
    assert cofs == ref_cofs


@pytest.mark.parametrize("field", DIFF_FIELDS, ids=lambda f: repr(f))
@pytest.mark.parametrize("order", DIFF_ORDERS, ids=lambda o: f"{o.kind}{o.precedence}")
def test_buchberger_matches_reference(field, order):
    ring = PolyRing(("x", "y", "z"), field)
    for make_poly in (rand_poly, rand_rational_poly):
        rng = random.Random(17)
        for _ in range(6):
            gens = [make_poly(ring, rng, max_degree=3, terms=3) for _ in range(rng.randint(2, 3))]
            assert buchberger_with_reps(gens, order) == reference_groebner.buchberger_with_reps(
                gens, order
            )


RXYZ = PolyRing(("x", "y", "z"), QQ)


def test_divisor_reused_across_orders():
    # The leading coefficient of g is 3 under lex and -5/2 under grevlex;
    # its cached integer form is the same object under both orders.
    g = RXYZ.parse("3*x^2 - 5/2*y^3 + 7/4*z")
    h = RXYZ.parse("-2/3*x*y + z^2")
    p = RXYZ.parse("x^4*y^3 + 1/3*x^2*y^5 - y^6 + x*z^3 - 9/8*x^2*z")
    lex, grevlex = MonomialOrder.lex(3), MonomialOrder.grevlex(3)
    assert g.leading_coefficient(lex) != g.leading_coefficient(grevlex)
    form = g.integer_form()
    for order in (lex, grevlex, lex):
        assert divide_full(p, [g, h], order) == reference_groebner.divide_full(p, [g, h], order)
    assert g.integer_form() is form


@pytest.mark.parametrize("order", [MonomialOrder.lex(3), MonomialOrder.grevlex(3)], ids=["lex", "grevlex"])
def test_coprime_leading_coefficients(order):
    # Most steps rescale the pending terms by 3, 5 or 11.
    divisors = [RXYZ.parse(t) for t in ("3*x - 2*y", "5*y - 7*z", "11*z - 1")]
    p = RXYZ.parse("(x + 1/2*y - z + 1)^7 + 2/7*x^5*y^3")
    rem, cofs = divide_full(p, divisors, order)
    assert (rem, cofs) == reference_groebner.divide_full(p, divisors, order)
    assert rem.degree() == 0
    for q in (rem, *cofs):
        for c in q.terms.values():
            assert type(c) is Fraction
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def test_field_hooks_of_the_division_loop():
    m, n = (1, 0, 0), (0, 2, 0)
    assert QQ.integer_form({m: Fraction(1, 6), n: Fraction(-3, 4)}) == ({m: 2, n: -9}, 12)
    assert QQ.integer_form({}) == ({}, 1)
    # s > 0 and minimal, whatever the signs: 6 * s == t * (-4).
    assert QQ.cancel(6, -4) == (2, -3)
    assert QQ.cancel(-6, 4) == (2, -3)
    assert QQ.cancel(5, 1) == (1, 5)
    f7 = PrimeField(7)
    assert f7.integer_form({m: 3}) == ({m: 3}, 1)
    assert f7.cancel(3, 5) == (1, 2)  # 3 == 2*5 mod 7
    assert f7.reduce_int(-1) == 6 and QQ.reduce_int(-1) == -1


@pytest.mark.parametrize("field", DIFF_FIELDS, ids=lambda f: repr(f))
def test_cofactor_certificate_matches_polynomial_arithmetic(field):
    # The certificate runs on integer forms; here the combination is
    # formed with Polynomial arithmetic, then moved off by one term.
    ring = PolyRing(("x", "y", "z"), field)
    rng = random.Random(41)
    for _ in range(30):
        gens = [rand_rational_poly(ring, rng, max_degree=2) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()] or [ring.var(0)]
        reps = []
        polys = []
        for _ in range(rng.randint(1, 3)):
            rep = [rand_rational_poly(ring, rng, max_degree=2, terms=rng.randint(0, 3)) for _ in gens]
            total = ring.zero()
            for r, g in zip(rep, gens):
                total = total + r * g
            reps.append(tuple(rep))
            polys.append(total)
        groebner._certify_reps(polys, reps, gens)
        i = rng.randrange(len(polys))
        off = rand_rational_poly(ring, rng, max_degree=3, terms=1)
        if off.is_zero():
            continue
        polys[i] = polys[i] + off
        with pytest.raises(VerificationFailure, match=f"element {i} do not reproduce"):
            groebner._certify_reps(polys, reps, gens)
