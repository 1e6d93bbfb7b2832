"""Polynomial arithmetic, monomial orders, parser and printer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkit.errors import (
    DivisionByZeroInCoefficient,
    FieldMismatch,
    ParseError,
    UnknownVariable,
    VariableMismatch,
)
from mfkit.fields import QQ, PrimeField
from mfkit.poly import (
    MonomialOrder,
    PolyRing,
    format_canonical,
    parse_polynomial,
)

RUV = PolyRing(("u", "v"), QQ)
RXY = PolyRing(("x", "y"), QQ)
GREVLEX2 = MonomialOrder.grevlex(2)
LEX2 = MonomialOrder.lex(2)


def brute_mul(ring, a_terms, b_terms):
    """Schoolbook term-by-term product, independent of Polynomial.__mul__."""
    out = {}
    for ma, ca in a_terms.items():
        for mb, cb in b_terms.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c != 0}


class TestParse:
    def test_zero(self):
        assert parse_polynomial("0", ["u", "v"], QQ).is_zero()

    def test_cusp_curve(self):
        p = parse_polynomial("y^2 - x^3", ["x", "y"], QQ)
        assert p.terms == {(0, 2): QQ.from_int(1), (3, 0): QQ.from_int(-1)}

    def test_square_expansion_mod_five(self):
        # Oracle: expand (u+v)^2 by repeated schoolbook multiplication.
        f5 = PrimeField(5)
        ring = PolyRing(("u", "v"), f5)
        u_plus_v = {(1, 0): 1, (0, 1): 1}
        square = brute_mul(ring, u_plus_v, u_plus_v)
        expected = {m: c % 5 for m, c in square.items()}
        expected[(1, 1)] = (expected[(1, 1)] - 2) % 5
        expected = {m: c for m, c in expected.items() if c}
        p = ring.parse("(u+v)^2 - 2*u*v")
        assert p.terms == expected
        assert p == ring.parse("u^2 + v^2")

    def test_fraction_coefficients(self):
        p = RUV.parse("1/2*u + 3/4")
        assert p.terms[(1, 0)] == QQ.ratio(1, 2)
        assert p.terms[(0, 0)] == QQ.ratio(3, 4)

    def test_nested_parens_and_pow(self):
        assert RUV.parse("((u + v))^3") == RUV.parse("u + v") ** 3

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            RUV.parse("u + + v")
        assert err.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            RUV.parse("u + w")

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZeroInCoefficient):
            RUV.parse("1/0")

    def test_denominator_divisible_by_modulus(self):
        ring = PolyRing(("u",), PrimeField(5))
        with pytest.raises(DivisionByZeroInCoefficient):
            ring.parse("1/5")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            RUV.parse("u + v)")


class TestFormat:
    def test_zero(self):
        assert format_canonical(RUV.zero(), GREVLEX2) == "0"

    def test_leading_minus(self):
        p = RXY.parse("- x^3 + y^2")
        assert format_canonical(p, GREVLEX2) == "-x^3 + y^2"

    def test_constant_last(self):
        p = RUV.parse("1/2 + u")
        assert format_canonical(p, LEX2) == "u + 1/2"

    def test_prime_field_canonical_range(self):
        ring = PolyRing(("u",), PrimeField(5))
        p = ring.parse("-u + 7")
        assert format_canonical(p, MonomialOrder.grevlex(1)) == "4*u + 2"

    def test_roundtrip_random(self):
        rng = random.Random(20260811)
        from .genutil import rand_poly

        for _ in range(1000):
            p = rand_poly(RUV, rng, max_degree=4, terms=5, coeff_bound=9)
            assert RUV.parse(format_canonical(p, GREVLEX2)) == p

    def test_equal_polys_format_identically(self):
        a = RUV.parse("u*v + v*u + u^2")
        b = RUV.parse("u^2 + 2*u*v")
        assert a == b
        assert format_canonical(a, GREVLEX2) == format_canonical(b, GREVLEX2)


class TestArithmetic:
    def test_add_neg_is_zero(self):
        p = RUV.parse("3*u^2*v - 1/7*v + 2")
        assert (p + (-p)).is_zero()

    def test_monomial_product(self):
        assert RUV.parse("u") * RUV.parse("v") == RUV.parse("u*v")

    def test_square_of_sum_of_squares(self):
        # Oracle: schoolbook expansion of (u^2 + v^2)^2.
        p = RUV.parse("u^2 + v^2")
        expected = brute_mul(RUV, dict(p.terms), dict(p.terms))
        assert (p * p).terms == expected
        assert p * p == RUV.parse("u^4 + 2*u^2*v^2 + v^4")

    def test_field_mismatch(self):
        q = PolyRing(("u", "v"), PrimeField(5))
        with pytest.raises(FieldMismatch):
            RUV.parse("u") + q.parse("u")

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            RUV.parse("u") + RXY.parse("x")

    def test_unit_laws(self):
        p = RUV.parse("u^2 - v + 3")
        assert p + RUV.zero() == p
        assert p * RUV.one() == p
        assert (p * RUV.zero()).is_zero()


def small_polys(ring=RUV):
    coeff = st.integers(min_value=-6, max_value=6)
    mono = st.tuples(
        st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
    )
    return st.dictionaries(mono, coeff, max_size=4).map(
        lambda d: sum(
            (ring.monomial(m, ring.field.from_int(c)) for m, c in d.items()),
            ring.zero(),
        )
    )


@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(small_polys(), small_polys())
@settings(max_examples=50)
def test_format_roundtrip_property(a, b):
    p = a * b + a
    assert RUV.parse(format_canonical(p, GREVLEX2)) == p


class TestMonomialOrder:
    def test_equal(self):
        assert GREVLEX2.compare((1, 2), (1, 2)) == 0

    def test_grevlex_squares_beat_mixed(self):
        # u^2 vs u*v with u before v: same degree, reverse-lex tiebreak.
        assert GREVLEX2.compare((2, 0), (1, 1)) == 1

    def test_lex_prefers_high_precedence(self):
        # v^3 vs u under lex with u before v.
        assert LEX2.compare((0, 3), (1, 0)) == -1

    def test_one_is_minimal(self):
        for order in (GREVLEX2, LEX2):
            assert order.compare((0, 0), (1, 0)) == -1
            assert order.compare((0, 0), (0, 1)) == -1

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            GREVLEX2.compare((1,), (1, 0))

    def test_precedence_permutation(self):
        # With v most significant, lex ranks v over u^5.
        order = MonomialOrder.lex(2, (1, 0))
        assert order.compare((0, 1), (5, 0)) == 1


def test_leading_monomial_cache_follows_the_order():
    p = RUV.parse("u^2 + v^3")
    lex, grevlex = MonomialOrder.lex(2), MonomialOrder.grevlex(2)
    assert p.leading_monomial(lex) == (2, 0)
    assert p.leading_monomial(grevlex) == (0, 3)
    assert p.leading_monomial(MonomialOrder.lex(2)) == (2, 0)
    assert p.leading_coefficient(grevlex) == QQ.one


MONOS = st.tuples(
    st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)
)


@given(MONOS, MONOS, MONOS, st.sampled_from([GREVLEX2, LEX2]))
def test_order_properties(a, b, c, order):
    # Antisymmetry.
    assert order.compare(a, b) == -order.compare(b, a)
    # Transitivity.
    if order.compare(a, b) >= 0 and order.compare(b, c) >= 0:
        assert order.compare(a, c) >= 0
    # Multiplicativity.
    prod = tuple(x + y for x, y in zip(a, c))
    prod_b = tuple(x + y for x, y in zip(b, c))
    assert order.compare(prod, prod_b) == order.compare(a, b)
