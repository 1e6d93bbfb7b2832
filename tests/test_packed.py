"""Packed monomials against plain exponent-tuple arithmetic.

A monomial in mfkit is one int (see `mfkit.poly`). These tests draw
exponent tuples over 1-6 variables, up to the edge of the packed range,
and check every packed operation against the obvious tuple computation:
the pack/exps round trip, product, quotient, divisibility, lcm, degree,
the agreement of `MonomialOrder.key` with the tuple orders of
`reference_groebner.order_key`, and the linearity of the keys that
`divide_full` relies on. The last tests pin the checks a packed int
cannot carry: an order for another variable count raises
VariableMismatch, and a result past MAX_DEGREE raises BudgetExceeded,
never a wrapped exponent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkit.errors import BudgetExceeded, VariableMismatch
from mfkit.fields import QQ, PrimeField
from mfkit.groebner import divide_full
from mfkit.poly import MAX_DEGREE, MonomialOrder, PolyRing, sum_of_products

from .reference_groebner import mono_div, mono_divides, mono_lcm, mono_mul, order_key

RINGS = {n: PolyRing(tuple(f"x{i}" for i in range(n)), QQ) for n in range(1, 7)}


@st.composite
def exponents(draw, n, cap=MAX_DEGREE):
    """An exponent tuple of n entries with total at most cap, often on
    the edge: entries of 0, of everything left, and the full total."""
    left = draw(st.sampled_from([cap, cap, draw(st.integers(0, cap))]))
    out = []
    for _ in range(n):
        e = draw(st.one_of(st.just(0), st.just(left), st.integers(0, left)))
        out.append(e)
        left -= e
    return tuple(draw(st.permutations(out)))


@st.composite
def monomial_pairs(draw):
    n = draw(st.integers(1, 6))
    return RINGS[n], draw(exponents(n)), draw(exponents(n))


@st.composite
def orders(draw, n):
    return MonomialOrder(draw(st.sampled_from(["lex", "grevlex"])), n)


def sign(x):
    return (x > 0) - (x < 0)


@given(monomial_pairs())
@settings(max_examples=400)
def test_pack_round_trip_and_degree(case):
    ring, a, _ = case
    m = ring.pack(a)
    assert ring.exps(m) == a
    assert m >> ring.shift == sum(a)
    assert 0 <= m < ring.limit and not m & ring.guard


@given(monomial_pairs())
@settings(max_examples=400)
def test_product_and_quotient(case):
    ring, a, b = case
    pa, pb = ring.pack(a), ring.pack(b)
    prod = mono_mul(a, b)
    if sum(prod) <= MAX_DEGREE:
        assert pa + pb == ring.pack(prod)
        assert pa + pb - pb == pa
        assert ring.monomial(a) * ring.monomial(b) == ring.monomial(prod)
    else:
        with pytest.raises(BudgetExceeded):
            ring.monomial(a) * ring.monomial(b)
    if mono_divides(b, a):
        assert pa - pb == ring.pack(mono_div(a, b))


@given(monomial_pairs())
@settings(max_examples=600)
def test_divisibility_is_one_guard_test(case):
    ring, a, b = case
    pa, pb = ring.pack(a), ring.pack(b)
    assert (not (pb - pa) & ring.guard) == mono_divides(a, b)
    assert (not (pa - pb) & ring.guard) == mono_divides(b, a)
    # Every monomial divides itself and its multiples, and 1 divides all.
    assert not (pa - pa) & ring.guard and not (pa - 0) & ring.guard


@given(monomial_pairs())
@settings(max_examples=400)
def test_lcm(case):
    ring, a, b = case
    pa, pb = ring.pack(a), ring.pack(b)
    expected = mono_lcm(a, b)
    if sum(expected) <= MAX_DEGREE:
        assert ring.lcm(pa, pb) == ring.pack(expected) == ring.lcm(pb, pa)
    else:
        with pytest.raises(BudgetExceeded):
            ring.lcm(pa, pb)


@st.composite
def order_cases(draw):
    n = draw(st.integers(1, 6))
    # Halves of the range, so that every product stays in range.
    a, b, c = (draw(exponents(n, MAX_DEGREE // 2)) for _ in range(3))
    return RINGS[n], draw(orders(n)), a, b, c


@given(order_cases())
@settings(max_examples=600)
def test_keys_agree_with_tuple_orders_and_are_linear(case):
    ring, order, a, b, c = case
    pa, pb, pc = ring.pack(a), ring.pack(b), ring.pack(c)
    key = order.key
    ka, kb = order_key(order, a), order_key(order, b)
    assert sign(key(pa) - key(pb)) == sign((ka > kb) - (ka < kb))
    assert (key(pa) == key(pb)) == (a == b)
    # key(a*b) == key(a) + key(b), and so key(a/b) == key(a) - key(b).
    assert key(pa + pb) == key(pa) + key(pb)
    assert key(pa + pb + pc) == key(pa) + key(pb) + key(pc)
    assert key(0) == 0


def test_grevlex_identity_key_is_the_shift_formula():
    ring = RINGS[3]
    order = MonomialOrder.grevlex(3)
    s = ring.shift
    for a in [(0, 0, 0), (1, 2, 3), (MAX_DEGREE, 0, 0), (0, 0, MAX_DEGREE), (5, 0, 7)]:
        m = ring.pack(a)
        assert order.key(m) == 2 * ((m >> s) << s) - m


def test_order_for_another_variable_count():
    # Keys of packed monomials cannot see the variable count, so the
    # leading-monomial search checks the order against the ring.
    p = RINGS[2].parse("x0^2 + x1")
    with pytest.raises(VariableMismatch):
        p.leading_monomial(MonomialOrder.grevlex(3))
    with pytest.raises(VariableMismatch):
        divide_full(p, [RINGS[2].parse("x1")], MonomialOrder.lex(1))


class TestRangeBound:
    def test_pack_checks_length_sign_and_range(self):
        ring = RINGS[2]
        with pytest.raises(VariableMismatch):
            ring.pack((1, 2, 3))
        with pytest.raises(ValueError):
            ring.pack((-1, 2))
        assert ring.exps(ring.pack((MAX_DEGREE, 0))) == (MAX_DEGREE, 0)
        with pytest.raises(BudgetExceeded):
            ring.pack((MAX_DEGREE, 1))

    def test_in_range_factors_multiply_past_the_bound(self):
        ring = PolyRing(("x", "y"), PrimeField(32003))
        half = ring.parse(f"x^{MAX_DEGREE // 2 + 1} + y")
        assert half.degree() == MAX_DEGREE // 2 + 1
        with pytest.raises(BudgetExceeded):
            half * half
        with pytest.raises(BudgetExceeded):
            sum_of_products(ring, [(ring.one(), half), (half, half)])
        with pytest.raises(BudgetExceeded):
            half * ring.monomial((0, MAX_DEGREE))
        with pytest.raises(BudgetExceeded):
            half**2
        # At the edge itself every operation still works.
        edge = ring.parse(f"x^{MAX_DEGREE // 2}") * ring.parse(f"x^{MAX_DEGREE - MAX_DEGREE // 2}")
        assert ring.exps(next(iter(edge.nums))) == (MAX_DEGREE, 0)

    def test_parse_stops_before_the_product(self):
        ring = RINGS[2]
        with pytest.raises(BudgetExceeded):
            ring.parse(f"x0^{MAX_DEGREE + 1}")
        with pytest.raises(BudgetExceeded):
            ring.parse(f"(x0 + x1)^{10**9}")
        with pytest.raises(BudgetExceeded):
            ring.parse(f"x0^{MAX_DEGREE} * x1")
        assert ring.parse(f"2^{MAX_DEGREE + 1}").degree() == 0

    def test_division_step_past_the_bound(self):
        # Under lex with x > y, reducing x^2 by x - y^MAX_DEGREE would
        # produce x*y^MAX_DEGREE, of total degree MAX_DEGREE + 1.
        ring = PolyRing(("x", "y"), QQ)
        order = MonomialOrder.lex(2)
        g = ring.parse(f"x - y^{MAX_DEGREE}")
        rem, _ = divide_full(ring.parse("x"), [g], order)
        assert rem == ring.parse(f"y^{MAX_DEGREE}")
        with pytest.raises(BudgetExceeded):
            divide_full(ring.parse("x^2"), [g], order)
