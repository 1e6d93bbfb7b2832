"""Polynomial arithmetic, monomial orders, parser and printer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkit.errors import (
    BudgetExceeded,
    DivisionByZeroInCoefficient,
    FieldMismatch,
    ParseError,
    UnknownVariable,
    VariableMismatch,
)
from mfkit.fields import QQ, PrimeField
from mfkit.poly import (
    MAX_COEFF_BITS,
    MAX_NESTING,
    MonomialOrder,
    PolyRing,
    format_canonical,
    sum_of_products,
)

from .reference_poly import assert_canonical

RUV = PolyRing(("u", "v"), QQ)
RXY = PolyRing(("x", "y"), QQ)
GREVLEX2 = MonomialOrder.grevlex(2)
LEX2 = MonomialOrder.lex(2)


def exps_keyed(p):
    """p's numerators keyed by exponent tuples."""
    return {p.ring.exps(m): c for m, c in p.nums.items()}


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
        assert PolyRing(("u", "v"), QQ).parse("0").is_zero()

    def test_cusp_curve(self):
        p = PolyRing(("x", "y"), QQ).parse("y^2 - x^3")
        assert exps_keyed(p) == {(0, 2): 1, (3, 0): -1}
        assert p.den == 1

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
        assert exps_keyed(p) == expected and p.den == 1
        assert p == ring.parse("u^2 + v^2")

    def test_fraction_coefficients(self):
        # 1/2 and 3/4 over their least common denominator 4.
        p = RUV.parse("1/2*u + 3/4")
        assert exps_keyed(p) == {(1, 0): 2, (0, 0): 3}
        assert p.den == 4

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

    @pytest.mark.parametrize("text, position", [
        ("u^\u00b2*v", 2),   # superscript two: str.isdigit() is True, int() fails
        ("u^\u0663", 2),     # Arabic-Indic three: int() reads 3
        ("u^\uff13", 2),     # fullwidth three: int() reads 3
        ("\u0663*u", 0),     # a non-ASCII digit as a coefficient
        ("1/\u0663", 2),     # and as a denominator
    ])
    def test_literals_are_ascii_digits(self, text, position):
        with pytest.raises(ParseError) as err:
            RUV.parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize("signs", [1, 2, 5000, 5001])
    def test_a_run_of_signs_parses_in_a_loop(self, signs):
        # -x^2 is -(x^2), however many signs.
        p = RUV.parse("-" * signs + "u^2 - v")
        assert p == (RUV.parse("u^2") if signs % 2 == 0 else -RUV.parse("u^2")) - RUV.parse("v")

    def test_parentheses_nest_up_to_the_bound(self):
        assert RUV.parse("(" * MAX_NESTING + "u" + ")" * MAX_NESTING) == RUV.parse("u")
        deeper = "u*" + "(" * (MAX_NESTING + 1) + "v" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}") as err:
            RUV.parse(deeper)
        assert err.value.position == 2 + MAX_NESTING

    @pytest.mark.parametrize("text, position", [
        ("1" * 5000 + "*u", 0), ("u^" + "1" * 5000, 2), ("1/" + "1" * 5000, 2),
    ])
    def test_a_literal_past_the_digit_limit_is_a_parse_error(self, text, position):
        with pytest.raises(ParseError, match="of 5000 digits is too long") as err:
            RUV.parse(text)
        assert err.value.position == position

    def test_sum_equals_the_term_by_term_sum(self):
        rng = random.Random(5)
        for field in (QQ, PrimeField(7)):
            ring = PolyRing(("u", "v"), field)
            for _ in range(40):
                terms = [(rng.choice("+-"), f"{rng.randint(0, 9)}/{rng.randint(1, 6)}"
                          f"*u^{rng.randint(0, 3)}*v^{rng.randint(0, 3)}")
                         for _ in range(rng.randint(1, 8))]
                text = " ".join(f"{sign} {term}" for sign, term in terms).removeprefix("+ ")
                total = ring.zero()
                for sign, term in terms:
                    total = total + ring.parse(term) if sign == "+" else total - ring.parse(term)
                got = ring.parse(text)
                assert got == total
                assert_canonical(got)
                assert ring.parse(f"({text}) * u") == total * ring.parse("u")

    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
    def test_a_flat_sum_normalizes_entries_linear_in_its_terms(self, field, monkeypatch):
        # Every term u_a*u_b enters the same few normalizations, and the
        # sum is normalized once: the entries passed to `normalize` are
        # an affine function of the number of terms T. Adding one term
        # at a time would normalize the running sum each time, about
        # T^2/2 entries in all.
        ring = PolyRing(tuple(f"u{i}" for i in range(40)), field)
        pairs = [(a, b) for a in range(40) for b in range(a, 40)]
        entries = []
        normalize = type(field).normalize
        monkeypatch.setattr(type(field), "normalize",
                            lambda self, nums, den: entries.append(len(nums)) or normalize(self, nums, den))

        def count(t):
            entries.clear()
            ring.parse(" + ".join(f"u{a}*u{b}" for a, b in pairs[:t]))
            return sum(entries)

        c100, c200, c400, c800 = map(count, (100, 200, 400, 800))
        assert c800 - c400 == 2 * (c400 - c200) == 4 * (c200 - c100)


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


def test_a_coefficient_too_long_to_print_is_a_budget_error():
    p = RUV.parse("2^15000*u")
    with pytest.raises(BudgetExceeded, match="15001-bit"):
        format_canonical(p, GREVLEX2)
    with pytest.raises(BudgetExceeded, match="15001-bit"):
        format_canonical(RUV.parse("(1/2)^15000*u"), GREVLEX2)
    assert format_canonical(RUV.parse("2^10000*u"), GREVLEX2) == str(2**10000) + "*u"


def test_powers_stop_before_their_coefficients_pass_the_bound():
    # (T*c)^n bounds the coefficients of p^n for T terms of size at most c.
    assert RUV.parse("(2^1000)^1000") == RUV.const(2 ** 1000000)
    assert RUV.parse("1^1000000000") == RUV.one()
    with pytest.raises(BudgetExceeded, match=f"at most {MAX_COEFF_BITS}"):
        RUV.parse("((2^1000)^1000)^2")
    with pytest.raises(BudgetExceeded):
        RUV.parse("(u + v)^" + str(MAX_COEFF_BITS + 1))  # also past the degree range
    # Over GF(p) coefficients stay below p, so only the degree is bounded.
    ring = PolyRing(("u",), PrimeField(7))
    assert ring.parse("(3)^1000000000") == ring.const(pow(3, 1000000000, 7))


class TestArithmetic:
    def test_add_neg_is_zero(self):
        p = RUV.parse("3*u^2*v - 1/7*v + 2")
        assert (p + (-p)).is_zero()

    def test_monomial_product(self):
        assert RUV.parse("u") * RUV.parse("v") == RUV.parse("u*v")

    def test_square_of_sum_of_squares(self):
        # Oracle: schoolbook expansion of (u^2 + v^2)^2.
        p = RUV.parse("u^2 + v^2")
        expected = brute_mul(RUV, exps_keyed(p), exps_keyed(p))
        assert exps_keyed(p * p) == expected and (p * p).den == 1
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


def compare(order, a, b, ring=RUV):
    """-1, 0 or 1 as the exponent tuple a is below, equal to or above b
    under `order`, by the keys of their packed forms in `ring`."""
    ka, kb = order.key(ring.pack(a)), order.key(ring.pack(b))
    return (ka > kb) - (ka < kb)


class TestMonomialOrder:
    def test_equal(self):
        assert compare(GREVLEX2, (1, 2), (1, 2)) == 0

    def test_grevlex_squares_beat_mixed(self):
        # u^2 vs u*v with u before v: same degree, reverse-lex tiebreak.
        assert compare(GREVLEX2, (2, 0), (1, 1)) == 1

    def test_lex_prefers_high_precedence(self):
        # v^3 vs u under lex with u before v.
        assert compare(LEX2, (0, 3), (1, 0)) == -1

    def test_one_is_minimal(self):
        for order in (GREVLEX2, LEX2):
            assert compare(order, (0, 0), (1, 0)) == -1
            assert compare(order, (0, 0), (0, 1)) == -1

    def test_variable_mismatch(self):
        # A monomial with the wrong number of exponents has no packed form.
        with pytest.raises(VariableMismatch):
            compare(GREVLEX2, (1,), (1, 0))

    def test_precedence_permutation(self):
        # Precedence is declaration order: with v declared before u, lex
        # ranks v over u^5.
        rvu = PolyRing(("v", "u"), QQ)
        assert compare(LEX2, (1, 0), (0, 5), rvu) == 1


def test_leading_monomial_cache_follows_the_order():
    p = RUV.parse("u^2 + v^3")
    lex, grevlex = MonomialOrder.lex(2), MonomialOrder.grevlex(2)
    assert RUV.exps(p.leading_monomial(lex)) == (2, 0)
    assert RUV.exps(p.leading_monomial(grevlex)) == (0, 3)
    assert RUV.exps(p.leading_monomial(MonomialOrder.lex(2))) == (2, 0)
    assert p.leading_coefficient(grevlex) == (1, 1)


MONOS = st.tuples(
    st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)
)


@given(MONOS, MONOS, MONOS, st.sampled_from([GREVLEX2, LEX2]))
def test_order_properties(a, b, c, order):
    # Antisymmetry.
    assert compare(order, a, b) == -compare(order, b, a)
    # Transitivity.
    if compare(order, a, b) >= 0 and compare(order, b, c) >= 0:
        assert compare(order, a, c) >= 0
    # Multiplicativity.
    prod = tuple(x + y for x, y in zip(a, c))
    prod_b = tuple(x + y for x, y in zip(b, c))
    assert compare(order, prod, prod_b) == compare(order, a, b)


KERNEL_FIELDS = [QQ, PrimeField(2), PrimeField(32003)]
RXYZ_BY_FIELD = {f: PolyRing(("x", "y", "z"), f) for f in KERNEL_FIELDS}

# Small integers, small fractions, and numerators and denominators up to
# 2^40, so that the products' denominators differ.
KERNEL_COEFFICIENTS = st.one_of(
    st.tuples(st.integers(min_value=-5, max_value=5), st.just(1)),
    st.tuples(st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=12)),
    st.tuples(st.integers(min_value=-(2**40), max_value=2**40), st.integers(min_value=1, max_value=2**40)),
)


def kernel_polys(ring):
    mono = st.tuples(*[st.integers(min_value=0, max_value=2)] * ring.nvars)

    def build(terms):
        field = ring.field
        p = ring.zero()
        for m, (num, den) in terms.items():
            if isinstance(field, PrimeField) and den % field.p == 0:
                den = 1
            p = p + ring.monomial(m, field.ratio(num, den))
        return p

    return st.dictionaries(mono, KERNEL_COEFFICIENTS, max_size=4).map(build)


@st.composite
def product_sums(draw):
    """(ring, pairs): zero factors come from empty term maps, and some
    lists end with the negation of a product already in them."""
    ring = RXYZ_BY_FIELD[draw(st.sampled_from(KERNEL_FIELDS))]
    polys = kernel_polys(ring)
    pairs = draw(st.lists(st.tuples(polys, polys), max_size=5))
    if pairs and draw(st.booleans()):
        a, b = draw(st.sampled_from(pairs))
        pairs.append((-a, b) if draw(st.booleans()) else (a, -b))
    return ring, pairs


@given(product_sums())
@settings(max_examples=400, deadline=None)
def test_sum_of_products_matches_polynomial_arithmetic(problem):
    ring, pairs = problem
    expected = ring.zero()
    for a, b in pairs:
        expected = expected + a * b
    got = sum_of_products(ring, iter(pairs))
    assert got == expected
    # Int numerators over a positive denominator: coprime to it over QQ,
    # reduced into [1, p) over a denominator of 1 over GF(p).
    assert_canonical(got)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_sum_of_products_edges(field):
    ring = RXYZ_BY_FIELD[field]
    x, y = ring.var(0), ring.var(1)
    assert sum_of_products(ring, []) == ring.zero()
    assert sum_of_products(ring, [(ring.zero(), x), (y, ring.zero())]) == ring.zero()
    assert sum_of_products(ring, [(x, y), (-y, x)]).is_zero()
    third = ring.const(field.ratio(1, 3))
    assert sum_of_products(ring, [(third, x), (x, third), (x, third)]) == x
    other = PolyRing(("x", "y"), field)
    with pytest.raises(VariableMismatch):
        sum_of_products(ring, [(x, other.var(0))])
    with pytest.raises(FieldMismatch):
        sum_of_products(ring, [(RXYZ_BY_FIELD[PrimeField(2) if field == QQ else QQ].zero(), x)])
