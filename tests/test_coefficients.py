"""mfkit's integer-native coefficients against a per-coefficient reference.

Every polynomial and linear-algebra result is compared, term by term,
with the same computation done one field element at a time in
`tests/reference_poly.py` (Fractions over QQ, ints modulo p over
GF(p)), and every polynomial result must be in canonical (nums, den)
form. Coefficients range over small integers, small fractions and
numerators and denominators up to 2^40, over QQ, GF(2) and GF(32003).
"""

from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkit import linalg
from mfkit.fields import QQ, PrimeField
from mfkit.groebner import GroebnerBasis, Ideal, buchberger_basis, divide_full, normal_form
from mfkit.poly import MonomialOrder, PolyRing, sum_of_products

from . import dense_linalg, reference_groebner
from . import reference_poly as ref
from .reference_poly import RefField, assert_canonical, coeffs, int_row

FIELDS = [QQ, PrimeField(2), PrimeField(32003)]
RINGS = {f: PolyRing(("x", "y", "z"), f) for f in FIELDS}
ORDERS = [MonomialOrder.grevlex(3), MonomialOrder.lex(3)]

BIG = 2**40
PAIRS = st.one_of(
    st.tuples(st.integers(-5, 5), st.just(1)),
    st.tuples(st.integers(-50, 50), st.integers(1, 12)),
    st.tuples(st.integers(-BIG, BIG), st.integers(1, BIG)),
)


def usable(field, num, den):
    """(num, den) with a denominator that is invertible in the field."""
    if isinstance(field, PrimeField) and den % field.p == 0:
        den = 1
    return num, den


@st.composite
def term_maps(draw, field, max_exp=2, max_terms=4):
    mono = st.tuples(*[st.integers(0, max_exp)] * 3)
    terms = draw(st.dictionaries(mono, PAIRS, max_size=max_terms))
    return {m: usable(field, n, d) for m, (n, d) in terms.items()}


def build(ring, terms):
    """(mfkit polynomial, reference coefficients) of the same terms: the
    first from one int dict over the lcm of the denominators, the second
    one field element per term."""
    field = RefField(ring.field)
    den = lcm(*[d for _, d in terms.values()])
    p = ring.from_ints({ring.pack(m): n * (den // d) for m, (n, d) in terms.items()}, den)
    expected = {m: c for m, (n, d) in terms.items() if (c := field.of(n, d))}
    assert_canonical(p)
    assert coeffs(p) == expected
    return p, expected


def check(p, expected):
    assert_canonical(p)
    assert coeffs(p) == expected


@st.composite
def arithmetic_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    ring = RINGS[field]
    polys = [build(ring, draw(term_maps(field))) for _ in range(3)]
    scalar = usable(field, *draw(PAIRS))
    return ring, polys, scalar


@given(arithmetic_cases())
@settings(max_examples=300, deadline=None)
def test_ring_operations_match_reference(case):
    ring, ((a, ra), (b, rb), (c, rc)), (num, den) = case
    field = RefField(ring.field)
    check(a + b, ref.add(field, ra, rb))
    check(a - b, ref.add(field, ra, rb, sign=-1))
    check(a - a, {})
    check(-a, ref.add(field, {}, ra, sign=-1))
    check(a * b, ref.mul(field, ra, rb))
    check(a.scale(num, den), ref.mul(field, ra, {(0, 0, 0): field.of(num, den)}))
    term = ring.monomial((1, 0, 2), ring.field.ratio(num, den))
    check(a * term, ref.mul(field, ra, {(1, 0, 2): field.of(num, den)}))
    pairs = [(a, b), (b, c), (-c, a), (a, -b)]
    check(sum_of_products(ring, pairs),
          ref.sum_of_products(field, [(ra, rb), (rb, rc), (ref.add(field, {}, rc, sign=-1), ra),
                                      (ra, ref.add(field, {}, rb, sign=-1))]))
    if a:
        order = ORDERS[0]
        monic, s_num, s_den = a.monic(order)
        lc_num, lc_den = monic.leading_coefficient(order)
        assert lc_num == lc_den
        check(monic, ref.mul(field, ra, {(0, 0, 0): field.of(s_num, s_den)}))


@st.composite
def division_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    ring = RINGS[field]
    p = build(ring, draw(term_maps(field, max_exp=4, max_terms=8)))[0]
    divisors = [build(ring, draw(term_maps(field, max_terms=3)))[0] for _ in range(draw(st.integers(1, 3)))]
    return p, [d for d in divisors if d] or [ring.var(0)], draw(st.sampled_from(ORDERS))


@given(division_cases())
@settings(max_examples=300, deadline=None)
def test_divide_full_matches_reference(case):
    p, divisors, order = case
    rem, cofs = divide_full(p, divisors, order)
    ref_rem, ref_cofs = reference_groebner.divide_full(p, divisors, order)
    check(rem, coeffs(ref_rem))
    for q, ref_q in zip(cofs, ref_cofs):
        check(q, coeffs(ref_q))
    # p == remainder + sum of cofactor*divisor, in reference arithmetic.
    field = RefField(p.ring.field)
    total = ref.add(field, coeffs(rem), ref.sum_of_products(
        field, [(coeffs(q), coeffs(d)) for q, d in zip(cofs, divisors)]))
    assert total == coeffs(p)


# Fixed ideals with fractional coefficients, denominators odd so that
# they parse over GF(2) too; their bases are computed once per field and
# order.
IDEALS = [
    ("x^2 - 1/3*y^2", "2/3*x*y + z^2"),
    ("3*x*y - 7/5*z", "y^2 + 11/13*x", "z^2 - 1/3"),
    ("5/7*x^2*y + 1/9*z^3",),
]


@pytest.fixture(scope="module")
def bases():
    out = {}
    for field in FIELDS:
        ring = RINGS[field]
        for order in ORDERS:
            for k, texts in enumerate(IDEALS):
                gens = tuple(ring.parse(t) for t in texts)
                out[field, order, k] = buchberger_basis(Ideal(gens, order))
    return out


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_normal_forms_match_reference(bases, data):
    field = data.draw(st.sampled_from(FIELDS))
    order = data.draw(st.sampled_from(ORDERS))
    basis: GroebnerBasis = bases[field, order, data.draw(st.integers(0, len(IDEALS) - 1))]
    for g in basis:
        assert_canonical(g)
        lc_num, lc_den = g.leading_coefficient(order)
        assert lc_num == lc_den
    p, _ = build(RINGS[field], data.draw(term_maps(field, max_exp=4, max_terms=6)))
    nf = normal_form(p, basis)
    check(nf, coeffs(reference_groebner.divide_full(p, list(basis.polys), order)[0]))
    # A normal form is its own normal form, and p - nf is in the ideal.
    assert normal_form(nf, basis) == nf
    assert normal_form(p - nf, basis).is_zero()


@st.composite
def linear_systems(draw):
    """(field, reference rows over the field, ncols): big numerators and
    denominators, plus combinations of earlier rows and zero rows."""
    field = draw(st.sampled_from(FIELDS))
    rf = RefField(field)
    ncols = draw(st.integers(0, 5))
    entry = st.one_of(st.just((0, 1)), PAIRS)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        pairs = draw(st.lists(entry, min_size=ncols + 1, max_size=ncols + 1))
        rows.append({c: v for c, pair in enumerate(pairs) if (v := rf.of(*usable(field, *pair)))})
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            k = rf.of(*usable(field, *draw(PAIRS)))
            row = dict(rows[i])
            for c, v in rows[j].items():
                row[c] = rf.add(row.get(c, rf.zero), rf.mul(k, v))
            rows.append({c: v for c, v in row.items() if v})
    rows.append({})
    return field, draw(st.permutations(rows)), ncols


@given(linear_systems())
@settings(max_examples=300, deadline=None)
def test_linear_algebra_matches_reference(case):
    field, rows, ncols = case
    rf = RefField(field)
    ints = [int_row(row) for row in rows]
    assert linalg.matrix_rank(ints, field) == dense_linalg.matrix_rank(ints, field)
    x = linalg.solve_linear(ints, ncols, field)
    assert x == dense_linalg.solve_linear(ints, ncols, field)
    if x is None:
        return
    nums, den = x
    assert den > 0 and len(nums) == ncols
    if isinstance(field, PrimeField):
        assert den == 1 and all(0 <= n < field.p for n in nums)
    else:
        assert gcd(den, *nums) == 1
    # The solution satisfies the reference rows, entry by entry.
    values = [rf.of(n, den) for n in nums]
    for row in rows:
        total = rf.zero
        for c, v in row.items():
            if c < ncols:
                total = rf.add(total, rf.mul(v, values[c]))
        assert total == row.get(ncols, rf.zero)
