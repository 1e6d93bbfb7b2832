"""A coefficient-by-coefficient reference for mfkit's (nums, den) form.

mfkit keeps each polynomial as one int dict over one denominator. The
reference here does the obvious thing instead: one field element per
term, `fractions.Fraction` over QQ and an int in [0, p) over GF(p), with
one field operation per coefficient. `coeffs` reads a `Polynomial` as
such a dict, `from_coeffs` builds one back through the public scalar
constructor `PolyRing.monomial`, `int_row` turns a row of elements into
the int row `mfkit.linalg` takes, and `assert_canonical` checks the
invariant every mfkit result must satisfy. `assert_canonical_row` checks
the form in which the graded windows hand their int rows to
`mfkit.linalg`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from mfkit.fields import PrimeField
from mfkit.poly import Polynomial, PolyRing


class RefField:
    """Per-coefficient arithmetic over QQ (Fractions) or GF(p) (ints)."""

    def __init__(self, field):
        self.field = field
        self.p = field.p if isinstance(field, PrimeField) else None
        self.zero = self.of(0)
        self.one = self.of(1)

    def of(self, num: int, den: int = 1):
        if self.p is None:
            return Fraction(num, den)
        return num * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return self._reduce(a + b)

    def sub(self, a, b):
        return self._reduce(a - b)

    def mul(self, a, b):
        return self._reduce(a * b)

    def neg(self, a):
        return self._reduce(-a)

    def inv(self, a):
        if self.p is None:
            return 1 / Fraction(a)
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def _reduce(self, a):
        return a if self.p is None else a % self.p


def coeffs(p: Polynomial) -> dict:
    """{exponent tuple: field element} of p."""
    ref = RefField(p.ring.field)
    return {p.ring.exps(m): ref.of(n, p.den) for m, n in p.nums.items()}


def from_coeffs(ring: PolyRing, terms: dict) -> Polynomial:
    """The polynomial with the given {exponent tuple: field element} terms."""
    p = ring.zero()
    for m, c in terms.items():
        p = p + ring.monomial(m, c)
    return p


def add(field: RefField, a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = field.add(out.get(m, field.zero), c if sign > 0 else field.neg(c))
    return {m: c for m, c in out.items() if c != field.zero}


def mul(field: RefField, a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = field.add(out.get(m, field.zero), field.mul(ca, cb))
    return {m: c for m, c in out.items() if c != field.zero}


def sum_of_products(field: RefField, pairs) -> dict:
    out: dict = {}
    for a, b in pairs:
        out = add(field, out, mul(field, a, b))
    return out


def scale(p: Polynomial, c) -> Polynomial:
    """c*p for a field element c, one coefficient at a time."""
    field = RefField(p.ring.field)
    return from_coeffs(p.ring, {m: field.mul(v, c) for m, v in coeffs(p).items()})


def int_row(row: dict) -> dict:
    """A row of field elements scaled by the lcm of its denominators: the
    int row that `mfkit.linalg` takes for it."""
    den = lcm(*[v.denominator for v in row.values()])
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}


def assert_canonical(p: Polynomial):
    """p's (nums, den) pair is canonical for its field."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.nums.values())
    field = p.ring.field
    if isinstance(field, PrimeField):
        assert p.den == 1
        assert all(0 < c < field.p for c in p.nums.values())
    elif not p.nums:
        assert p.den == 1
    else:
        assert gcd(p.den, *p.nums.values()) == 1


def assert_canonical_row(row: dict, field):
    """The int row is canonical for `field`: no zero entry and, over
    GF(p), every entry in [1, p), so `linalg` copies it unnormalized."""
    assert all(type(c) is int and c for c in row.values())
    if isinstance(field, PrimeField):
        assert all(0 < c < field.p for c in row.values())
