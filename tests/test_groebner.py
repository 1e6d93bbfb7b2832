"""Buchberger engine: bases, normal forms, cofactors, exact division."""

import contextlib
import io
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkit.groebner as groebner
from mfkit.cli import main as cli_main
from mfkit.errors import FieldMismatch, NotDivisible, VariableMismatch, VerificationFailure
from mfkit.fields import QQ, PrimeField
from mfkit.groebner import (
    DivisionOracle,
    GroebnerBasis,
    Ideal,
    buchberger_basis,
    buchberger_with_reps,
    divide_full,
    krull_dimension,
    normal_form,
)
from mfkit.poly import MonomialOrder, PolyRing, format_canonical

from . import reference_groebner
from .reference_groebner import membership_oracle, mono_div, mono_divides, mono_lcm
from .genutil import rand_homogeneous_poly, rand_poly
from .conftest import CORPUS_DIR, GOLDEN_DIR
from .reference_poly import assert_canonical

RXY = PolyRing(("x", "y"), QQ)
# Variables rank in declaration order, so lex on RYX ranks y over x.
RYX = PolyRing(("y", "x"), QQ)
GREVLEX2 = MonomialOrder.grevlex(2)
LEX2 = MonomialOrder.lex(2)


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
        basis = gb_of(RYX, ["y^2 - x^3", "x^2"], LEX2)
        assert [format_canonical(g, LEX2) for g in basis.polys] == ["y^2", "x^2"]

    def test_determinism(self):
        runs = []
        for _ in range(2):
            basis = gb_of(RXY, ["x^2*y - 1", "x*y^2 - x"], GREVLEX2)
            runs.append(tuple(format_canonical(g, GREVLEX2) for g in basis.polys))
        assert runs[0] == runs[1]

    def test_representation_identity(self):
        # With a basis of the other generators' ideal, each basis element
        # b comes with its cofactor c on the last generator w, in normal
        # form there, and b - c*w lies in that ideal.
        rng = random.Random(11)
        for _ in range(25):
            gens = [rand_poly(RXY, rng, max_degree=3, terms=3) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            mid = buchberger_basis(Ideal(tuple(gens[:-1]), GREVLEX2))
            polys, column = buchberger_with_reps(gens, GREVLEX2, modulo=mid)
            assert len(column) == len(polys)
            for b, c in zip(polys, column):
                assert reference_groebner.w_cofactor_holds(b, c, gens[-1], mid.polys, GREVLEX2)
                assert normal_form(c, mid) == c


class TestNormalForm:
    def test_generator_reduces_to_zero(self):
        basis = gb_of(RYX, ["y^2 - x^3"], LEX2)
        assert normal_form(RYX.parse("y^2 - x^3"), basis).is_zero()

    def test_single_step(self):
        basis = gb_of(RYX, ["y^2 - x^3"], LEX2)
        assert normal_form(RYX.parse("y^2"), basis) == RYX.parse("x^3")

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
        rem, cofs = divide_full(RXY.zero(), basis.polys, basis.order)
        assert rem.is_zero()
        assert all(c.is_zero() for c in cofs)

    def test_single_division(self):
        ryxu = PolyRing(("y", "x", "u"), QQ)
        basis = GroebnerBasis((ryxu.parse("y^2 - x^3"),), MonomialOrder.lex(3))
        rem, cofs = divide_full(ryxu.parse("y^2*u"), basis.polys, basis.order)
        assert rem == ryxu.parse("x^3*u")
        assert cofs == [ryxu.parse("u")]

    def test_nonmember_untouched(self):
        basis = gb_of(RXY, ["y^2"], GREVLEX2)
        rem, cofs = divide_full(RXY.parse("x"), basis.polys, basis.order)
        assert rem == RXY.parse("x")
        assert all(c.is_zero() for c in cofs)

    def test_identity_random(self):
        rng = random.Random(6)
        basis = gb_of(RXY, ["y^2 - x^3", "x^2*y - x"], GREVLEX2)
        for _ in range(200):
            p = rand_poly(RXY, rng, max_degree=5, terms=4)
            rem, cofs = divide_full(p, basis.polys, basis.order)
            recombined = rem
            for c, g in zip(cofs, basis.polys):
                recombined = recombined + c * g
            assert recombined == p


class TestExactDivision:
    def test_plain_monomial_division(self):
        empty = GroebnerBasis((), GREVLEX2)
        q = DivisionOracle(empty, RXY.parse("x")).divide(RXY.parse("x^2*y + x*y^2"))
        assert q == RXY.parse("x*y + y^2")

    def test_division_through_the_ideal(self):
        mid = gb_of(RXY, ["y^2 - x^3"], GREVLEX2)
        q = DivisionOracle(mid, RXY.parse("x^2")).divide(RXY.parse("y^2"))
        assert q == RXY.parse("x")
        # Round trip: y^2 - x^2 * x lies in the ideal.
        assert normal_form(RXY.parse("y^2") - RXY.parse("x^2") * q, mid).is_zero()

    def test_not_divisible(self):
        empty = GroebnerBasis((), GREVLEX2)
        with pytest.raises(NotDivisible):
            DivisionOracle(empty, RXY.parse("x")).divide(RXY.parse("y"))

    def test_round_trip_random(self):
        rng = random.Random(7)
        mid = gb_of(RXY, ["y^2 - x^3"], GREVLEX2)
        w = RXY.parse("x^2")
        oracle = DivisionOracle(mid, w)
        for _ in range(100):
            a = rand_poly(RXY, rng, max_degree=3, terms=3)
            noise = rand_poly(RXY, rng, max_degree=2, terms=2)
            p = w * a + noise * RXY.parse("y^2 - x^3")
            q = oracle.divide(p)
            assert normal_form(p - w * q, mid).is_zero()


class TestQuotientDimension:
    def test_zero_ideal(self):
        assert krull_dimension(GroebnerBasis((), GREVLEX2), 2) == 2

    def test_two_squares_is_zero_dimensional(self):
        ideal = Ideal((RXY.parse("x^2"), RXY.parse("y^2")), GREVLEX2)
        assert krull_dimension(buchberger_basis(ideal), 2) == 0

    def test_single_product(self):
        assert krull_dimension(buchberger_basis(Ideal((RXY.parse("x*y"),), GREVLEX2)), 2) == 1


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


def divide_by_basis(p, basis):
    return divide_full(p, basis.polys, basis.order)


class TestRingChecks:
    @pytest.mark.parametrize("reduce", [normal_form, divide_by_basis])
    def test_field_mismatch(self, reduce):
        # Over fp:7 this used to come back as -6*x*y + 1/2*y.
        basis = gb_of(PolyRing(("x", "y"), PrimeField(7)), ["x^2 - y"], GREVLEX2)
        with pytest.raises(FieldMismatch):
            reduce(RXY.parse("x^3 + 1/2*y"), basis)

    @pytest.mark.parametrize("reduce", [normal_form, divide_by_basis])
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
# Each order is a kind and a declaration order of x, y, z, as indices
# into (x, y, z): ("lex", (2, 0, 1)) is lex on a ring that declares
# (z, x, y), so z is the most significant variable there.
DIFF_ORDERS = [("lex", (2, 0, 1)), ("grevlex", (1, 2, 0)), ("lex", (0, 1, 2)), ("grevlex", (0, 1, 2))]


def diff_ring(field, declaration):
    return PolyRing(tuple("xyz"[i] for i in declaration), field)


def declared(polys, ring):
    """Polynomials over (x, y, z), as the same polynomials in `ring`,
    which declares x, y and z in another order."""
    grevlex = MonomialOrder.grevlex(3)
    return [ring.parse(format_canonical(p, grevlex)) for p in polys]


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
    kind, declaration = draw(st.sampled_from(DIFF_ORDERS))
    ring = diff_ring(draw(st.sampled_from(DIFF_FIELDS)), declaration)
    order = MonomialOrder(kind, 3)
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
@pytest.mark.parametrize("kind,declaration", DIFF_ORDERS, ids=[f"{k}{d}" for k, d in DIFF_ORDERS])
def test_buchberger_matches_reference(field, kind, declaration):
    ring, target = PolyRing(("x", "y", "z"), field), diff_ring(field, declaration)
    order = MonomialOrder(kind, 3)
    for make_poly in (rand_poly, rand_rational_poly):
        rng = random.Random(17)
        for _ in range(6):
            gens = [make_poly(ring, rng, max_degree=3, terms=3) for _ in range(rng.randint(2, 3))]
            gens = declared(gens, target)
            ref_polys, ref_reps = reference_groebner.buchberger_with_reps(gens, order)
            assert buchberger_with_reps(gens, order) == (ref_polys, None)
            # The tracked column agrees with the reference's last one
            # modulo (mid : w): (c - c_ref)*w lies in (mid) for each entry.
            w, mid = gens[-1], buchberger_basis(Ideal(tuple(gens[:-1]), order))
            polys, column = buchberger_with_reps(gens, order, modulo=mid)
            assert polys == ref_polys
            for c, rep in zip(column, ref_reps):
                assert normal_form(c, mid) == c
                assert normal_form((c - rep[-1]) * w, mid).is_zero()


RXYZ = PolyRing(("x", "y", "z"), QQ)


def test_divisor_reused_across_orders():
    # The leading coefficient of g is 3 under lex and -5/2 under grevlex;
    # division reads g's own (nums, den) under both orders and leaves
    # them as they were.
    g = RXYZ.parse("3*x^2 - 5/2*y^3 + 7/4*z")
    h = RXYZ.parse("-2/3*x*y + z^2")
    p = RXYZ.parse("x^4*y^3 + 1/3*x^2*y^5 - y^6 + x*z^3 - 9/8*x^2*z")
    lex, grevlex = MonomialOrder.lex(3), MonomialOrder.grevlex(3)
    assert g.leading_coefficient(lex) != g.leading_coefficient(grevlex)
    nums, before = g.nums, dict(g.nums)
    for order in (lex, grevlex, lex):
        assert divide_full(p, [g, h], order) == reference_groebner.divide_full(p, [g, h], order)
    assert g.nums is nums and g.nums == before and g.den == 4


@pytest.mark.parametrize("order", [MonomialOrder.lex(3), MonomialOrder.grevlex(3)], ids=["lex", "grevlex"])
def test_coprime_leading_coefficients(order):
    # Most steps rescale the pending terms by 3, 5 or 11.
    divisors = [RXYZ.parse(t) for t in ("3*x - 2*y", "5*y - 7*z", "11*z - 1")]
    p = RXYZ.parse("(x + 1/2*y - z + 1)^7 + 2/7*x^5*y^3")
    rem, cofs = divide_full(p, divisors, order)
    assert (rem, cofs) == reference_groebner.divide_full(p, divisors, order)
    assert rem.degree() == 0
    for q in (rem, *cofs):
        assert_canonical(q)


def test_field_hooks_of_the_division_loop():
    m, n = (1, 0, 0), (0, 2, 0)
    # 1/6 and -3/4 over their least common denominator 12, from any
    # common denominator and either sign.
    assert QQ.normalize({m: 2, n: -9}, 12) == ({m: 2, n: -9}, 12)
    assert QQ.normalize({m: 4, n: -18}, 24) == ({m: 2, n: -9}, 12)
    assert QQ.normalize({m: -4, n: 18, (0, 0, 1): 0}, -24) == ({m: 2, n: -9}, 12)
    assert QQ.normalize({m: 0}, 5) == ({}, 1)
    # s > 0 and minimal, whatever the signs: 6 * s == t * (-4).
    assert QQ.cancel(6, -4) == (2, -3)
    assert QQ.cancel(-6, 4) == (2, -3)
    assert QQ.cancel(5, 1) == (1, 5)
    f7 = PrimeField(7)
    assert f7.normalize({m: 3}, 1) == ({m: 3}, 1)
    assert f7.normalize({m: 3, n: 7}, 2) == ({m: 5}, 1)  # 3/2 == 5 mod 7
    assert f7.cancel(3, 5) == (1, 2)  # 3 == 2*5 mod 7
    assert f7.reduce_int(-1) == 6 and QQ.reduce_int(-1) == -1


@pytest.mark.parametrize("field", DIFF_FIELDS, ids=lambda f: repr(f))
def test_cofactor_certificate_matches_polynomial_arithmetic(monkeypatch, field):
    # The oracle certifies b - c*w in (mid) with one normal form on
    # integer forms; here each certified pair is checked again with
    # Polynomial arithmetic on the reference quotients. Division is
    # checked on p = w*q + sum m_i*r_i over the mid generators m_i: on
    # these inhomogeneous towers a pair's sugar is not its lcm's degree.
    # Then one combined element is moved off by a term outside (mid), and
    # the certificate must reject it by index.
    ring = PolyRing(("x", "y", "z"), field)
    order = MonomialOrder.grevlex(3)
    rng, divide_rng = random.Random(41), random.Random(43)
    real, shift = groebner.buchberger_with_reps, {}

    def shifted(generators, order, floor=None, modulo=None):
        polys, column = real(generators, order, floor, modulo)
        if shift and modulo is not None:
            polys = list(polys)
            polys[shift["i"]] = polys[shift["i"]] + shift["term"]
        return polys, column

    monkeypatch.setattr(groebner, "buchberger_with_reps", shifted)
    rejected = 0
    for _ in range(30):
        gens = [rand_rational_poly(ring, rng, max_degree=2) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()] or [ring.var(0)]
        shift.clear()
        w, mid = gens[-1], buchberger_basis(Ideal(tuple(gens[:-1]), order))
        oracle = DivisionOracle(mid, w)
        for b, c in zip(oracle.combined.polys, oracle.w_cofactors):
            assert reference_groebner.w_cofactor_holds(b, c, w, mid.polys, order)
        for _ in range(2):
            p = w * rand_rational_poly(ring, divide_rng, max_degree=2)
            for m in gens[:-1]:
                p = p + m * rand_rational_poly(ring, divide_rng, max_degree=2)
            assert normal_form(w * oracle.divide(p) - p, mid).is_zero()
        i = rng.randrange(len(oracle.combined))
        term = rand_rational_poly(ring, rng, max_degree=3, terms=1)
        if normal_form(term, mid).is_zero():
            continue
        shift.update(i=i, term=term)
        with pytest.raises(VerificationFailure, match=f"element {i} do not reproduce"):
            DivisionOracle(mid, w)
        rejected += 1
    assert rejected >= 15


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_negative_degrees_have_no_monomials(nvars):
    # One variable used to give the exponent tuple (-1,).
    for degree in (-1, -2):
        assert groebner.monomials_of_degree(nvars, degree) == []
    assert groebner.monomials_of_degree(nvars, 0) == [(0,) * nvars]


# Pair criteria and selection. `buchberger_with_reps` drops the pairs
# that the Gebauer-Moeller criteria prove redundant and takes the rest by
# sugar; the reference processes every pair in the order's normal
# selection. The reduced basis is unique, so the two must agree on it.
# Untracked, the run computes no cofactor.

def rand_ideal(ring, rng, homogeneous):
    if homogeneous:
        return [rand_homogeneous_poly(ring, rng, rng.randint(1, 3), coeff_bound=rng.choice([1, 3]))
                for _ in range(rng.randint(2, 3))]
    make_poly = rng.choice([rand_poly, rand_rational_poly])
    return [make_poly(ring, rng, max_degree=3, terms=rng.randint(2, 4)) for _ in range(rng.randint(2, 4))]


@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("field", DIFF_FIELDS, ids=lambda f: repr(f))
@pytest.mark.parametrize("kind,declaration", DIFF_ORDERS, ids=[f"{k}{d}" for k, d in DIFF_ORDERS])
def test_pruned_buchberger_matches_reference_basis(field, kind, declaration, homogeneous):
    ring, target = PolyRing(("x", "y", "z"), field), diff_ring(field, declaration)
    order = MonomialOrder(kind, 3)
    rng = random.Random(29)
    for _ in range(8):
        gens = declared(rand_ideal(ring, rng, homogeneous), target)
        polys, column = buchberger_with_reps(gens, order)
        assert polys == reference_groebner.buchberger_with_reps(gens, order)[0]
        assert column is None


GREVLEX3 = MonomialOrder.grevlex(3)


def _lms(*texts):
    return [RXYZ.parse(t).leading_monomial(GREVLEX3) for t in texts]


def _run_update(lms, pending=()):
    """Run the update for the last of `lms`, with `pending` pairs live;
    returns the live pairs and the pairs pushed onto the heap."""
    live = {ij: RXYZ.lcm(lms[ij[0]], lms[ij[1]]) for ij in pending}
    pairs: list = []
    groebner._update(RXYZ, len(lms) - 1, lms, live, pairs, lambda l, i, k: GREVLEX3.key(l))
    return live, sorted(ij for _, ij in pairs)


class TestGebauerMoellerUpdate:
    def test_b_k_drops_a_pair_that_k_covers(self):
        live, _ = _run_update(_lms("x^2", "y^2", "x*y"), pending=[(0, 1)])
        assert (0, 1) not in live

    def test_b_k_keeps_a_pair_with_the_lcm_of_a_new_pair(self):
        # y divides lcm(x^2, x*y) = x^2*y, but so does lcm(x^2, y).
        live, _ = _run_update(_lms("x^2", "x*y", "y"), pending=[(0, 1)])
        assert RXYZ.exps(live[0, 1]) == (2, 1, 0)
        live, _ = _run_update(_lms("x*y", "x^2", "y"), pending=[(0, 1)])
        assert RXYZ.exps(live[0, 1]) == (2, 1, 0)

    def test_b_k_keeps_a_pair_that_k_does_not_divide(self):
        live, _ = _run_update(_lms("x^2", "x*y", "z"), pending=[(0, 1)])
        assert (0, 1) in live

    def test_m_drops_a_pair_whose_lcm_another_strictly_divides(self):
        # lcm(x*z^2, x*y) = x*y*z^2 is a strict multiple of lcm(y*z, x*y).
        _, new = _run_update(_lms("x*z^2", "y*z", "x*y"))
        assert new == [(1, 2)]

    def test_f_keeps_one_pair_per_lcm(self):
        # Both new pairs have the lcm x^2*y; the one with the smaller t stays.
        _, new = _run_update(_lms("x^2*y", "x^2", "x*y"))
        assert new == [(0, 2)]

    def test_product_criterion_drops_the_whole_group(self):
        # A coprime pair alone is dropped.
        _, new = _run_update(_lms("x^2", "y^2"))
        assert new == []
        # lcm(z, x) == lcm(x*z, x) == x*z, and z, x are coprime: the group
        # goes, whichever of its pairs has the smaller t.
        _, new = _run_update(_lms("z", "x*z", "x"))
        assert new == []
        _, new = _run_update(_lms("x*z", "z", "x"))
        assert new == []


def _spoly(f, g, order):
    ring = f.ring
    lf, lg = ring.exps(f.leading_monomial(order)), ring.exps(g.leading_monomial(order))
    l = mono_lcm(lf, lg)
    return f * ring.monomial(mono_div(l, lf)) - g * ring.monomial(mono_div(l, lg))


def test_quadrics_lex_golden_is_the_reduced_basis():
    # The golden of `gb quadrics_lex.mfw --field fp:32003` was first
    # produced by the pruned Buchberger, so it is proved here from its
    # printed text: for each ideal, the printed polynomials lie in it (by
    # a certified cofactor column), generate it (every generator reduces
    # to 0), form a Groebner basis (every S-polynomial reduces to 0 under
    # the reference division) and are reduced (monic, and no term
    # divisible by another element's leading monomial).
    ring = PolyRing(tuple("abcde"), PrimeField(32003))
    order = MonomialOrder.lex(5)
    text = (CORPUS_DIR / "quadrics_lex.mfw").read_text(encoding="utf-8")
    gens_line = next(line for line in text.splitlines() if line.startswith("gens = "))
    gens = [ring.parse(t) for t in gens_line[len("gens = "):].split(", ")]
    lines = (GOLDEN_DIR / "gb_quadrics_lex_fp32003.txt").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "mid ideal reduced basis:" and lines[-1] == "status=ok command=gb exit=0"
    split = lines.index("quot ideal reduced basis:")
    # w_coords = 1, 0, 0: w is the first generator and the mid ideal is
    # generated by the other two. Membership is certified by the column
    # of the last generator tracked modulo a basis of the others: the
    # second generator alone for the mid ideal, then the printed mid
    # basis, once proved, for the quot ideal.
    cases = [
        (gens[1:], lines[1:split], [gens[1]]),
        (gens[1:] + gens[:1], lines[split + 1 : -1], None),
    ]
    for ideal_gens, printed, others in cases:
        basis = [ring.parse(t) for t in printed]
        assert [format_canonical(b, order) for b in basis] == printed
        assert buchberger_with_reps(ideal_gens, order) == (basis, None)
        modulo = GroebnerBasis(tuple(others or mid), order)
        polys, column = buchberger_with_reps(list(modulo.polys) + ideal_gens[-1:], order, modulo=modulo)
        assert polys == basis
        for b, c in zip(basis, column):
            assert reference_groebner.w_cofactor_holds(b, c, ideal_gens[-1], modulo.polys, order)
        for g in ideal_gens:
            assert reference_groebner.divide_full(g, basis, order)[0].is_zero()
        for i, j in combinations(range(len(basis)), 2):
            s = _spoly(basis[i], basis[j], order)
            assert reference_groebner.divide_full(s, basis, order)[0].is_zero()
        lms = [reference_groebner.leading_monomial(b, order) for b in basis]
        for i, b in enumerate(basis):
            assert b.nums[ring.pack(lms[i])] == 1 and b.den == 1
            for m in map(ring.exps, b.nums):
                assert not any(mono_divides(lm, m) for k, lm in enumerate(lms) if k != i)
        mid = basis


@pytest.mark.parametrize("argv,calls,reductions", [
    (["--order", "grevlex"], 16, 8),
    (["--field", "fp:32003"], 73, 47),
    ([], 73, 47),
], ids=["grevlex-qq", "lex-fp32003", "lex-qq"])
def test_buchberger_division_count_on_the_quadrics(monkeypatch, argv, calls, reductions):
    # `gb` on the benchmark's first seed-1 3-quadric file (its own order is
    # grevlex) and on the lex case, counting the divide_full calls made
    # inside Buchberger: S-polynomials and the interreduction pass. The
    # counts pin the pairs that the criteria and the Hilbert-driven skip
    # of the deep basis leave to divide. The oracle's run also reduces
    # each new entry of its cofactor column modulo the mid basis, through
    # `normal_form`; those divisions are counted apart.
    counts = {"depth": 0, "column": 0, "divisions": 0, "reductions": 0}
    divide, buchberger, reduce = groebner.divide_full, groebner.buchberger_with_reps, groebner.normal_form

    def counted_divide(*args):
        if counts["depth"]:
            counts["reductions" if counts["column"] else "divisions"] += 1
        return divide(*args)

    def counted_buchberger(*args, **kwargs):
        counts["depth"] += 1
        try:
            return buchberger(*args, **kwargs)
        finally:
            counts["depth"] -= 1

    def counted_normal_form(*args):
        counts["column"] += 1
        try:
            return reduce(*args)
        finally:
            counts["column"] -= 1

    monkeypatch.setattr(groebner, "divide_full", counted_divide)
    monkeypatch.setattr(groebner, "buchberger_with_reps", counted_buchberger)
    monkeypatch.setattr(groebner, "normal_form", counted_normal_form)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["gb", str(CORPUS_DIR / "quadrics_lex.mfw"), *argv]) == 0
    assert counts["divisions"] == calls
    assert counts["reductions"] == reductions


def cyclic(ring):
    """The cyclic-n system in the n variables of `ring`: for k < n the sum
    of the n cyclic products of k consecutive variables, then
    x_0*...*x_(n-1) - 1."""
    n = ring.nvars
    xs = [ring.var(i) for i in range(n)]
    gens = []
    for k in range(1, n):
        total = ring.zero()
        for i in range(n):
            term = ring.one()
            for j in range(k):
                term = term * xs[(i + j) % n]
            total = total + term
        gens.append(total)
    product = ring.one()
    for x in xs:
        product = product * x
    return gens + [product - ring.one()]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=repr)
def test_cyclic6_basis_and_oracle(field):
    # A non-toy ideal: cyclic-6 under grevlex, 45 elements. Its input is
    # inhomogeneous, so the sugar of a pair is not its lcm's degree.
    ring = PolyRing(tuple(f"x{i}" for i in range(6)), field)
    order = MonomialOrder.grevlex(6)
    gens = cyclic(ring)
    basis = buchberger_basis(Ideal(tuple(gens), order)).polys
    assert len(basis) == 45
    lms = [b.leading_monomial(order) for b in basis]
    for i, b in enumerate(basis):
        assert b.nums[lms[i]] == b.den  # monic over QQ and GF(p)
        assert not any(not (m - lm) & ring.guard for m in b.nums for k, lm in enumerate(lms) if k != i)
    for g in gens:
        assert divide_full(g, basis, order)[0].is_zero()
    for i, j in combinations(range(len(basis)), 2):
        assert divide_full(groebner._spair(basis[i], basis[j], order)[0], basis, order)[0].is_zero()
    # The tower with mid = the first five generators and w = x0*...*x5 - 1.
    mid, w = buchberger_basis(Ideal(tuple(gens[:5]), order)), gens[5]
    oracle = DivisionOracle(mid, w)
    assert oracle.combined.polys == basis
    rng = random.Random(6)
    for _ in range(3):
        p = w * rand_poly(ring, rng, max_degree=3, terms=4)
        for m in gens[:5]:
            p = p + m * rand_poly(ring, rng, max_degree=2, terms=2)
        assert normal_form(w * oracle.divide(p) - p, mid).is_zero()
