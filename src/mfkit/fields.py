"""Exact coefficient fields: the rationals and prime fields.

Rational coefficients are `fractions.Fraction` values (always stored in
lowest terms with positive denominator). Prime field coefficients are
plain ints in the range [0, p). All arithmetic goes through the field
object so that polynomial code never hardcodes a coefficient type.

Division (`groebner.divide_full`) is the one place that works on plain
ints instead: it keeps the pending terms as integers over one running
denominator. The field supplies the four steps that differ between QQ
and GF(p): `integer_form` clears denominators, `cancel` picks the
multipliers that cancel a leading term, `reduce_int` reduces an integer
coefficient (modulo p, or not at all over QQ) and `ratio` turns an
integer fraction back into a field element.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DivisionByZeroInCoefficient


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Rationals:
    """The field of rational numbers."""

    name = "qq"

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def ratio(self, num: int, den: int) -> Fraction:
        if den == 0:
            raise DivisionByZeroInCoefficient("zero denominator in coefficient")
        return Fraction(num, den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZeroInCoefficient("division by zero coefficient")
        return 1 / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def integer_form(self, terms: dict) -> tuple[dict, int]:
        """(F, D): D > 0 is the lcm of the denominators and F = D*terms
        has int coefficients."""
        den = lcm(*[c.denominator for c in terms.values()])
        return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den

    def cancel(self, c: int, a: int) -> tuple[int, int]:
        """(s, t) with s*c == t*a and s > 0 as small as possible.

        Scaling a pending term c*x^m by s and subtracting t*x^u times a
        divisor with leading term a*x^(m-u) cancels it.
        """
        g = gcd(c, a)
        if a < 0:
            g = -g
        return a // g, c // g

    def reduce_int(self, n: int) -> int:
        return n

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("qq")

    def __repr__(self) -> str:
        return "QQ"


class PrimeField:
    """The field with p elements, p prime, 2 <= p < 2**31."""

    def __init__(self, p: int):
        if not (2 <= p < 2**31) or not _is_prime(p):
            raise ValueError(f"modulus must be a prime in [2, 2^31): {p}")
        self.p = p
        self.name = f"fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n: int) -> int:
        return n % self.p

    def ratio(self, num: int, den: int) -> int:
        d = den % self.p
        if d == 0:
            raise DivisionByZeroInCoefficient(
                f"denominator is zero modulo {self.p}"
            )
        return num % self.p * pow(d, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZeroInCoefficient("division by zero coefficient")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def integer_form(self, terms: dict) -> tuple[dict, int]:
        """(terms, 1): elements are ints already."""
        return terms, 1

    def cancel(self, c: int, a: int) -> tuple[int, int]:
        """(s, t) with s*c == t*a: here s = 1 and t = c/a."""
        return 1, c * pow(a, -1, self.p) % self.p

    def reduce_int(self, n: int) -> int:
        return n % self.p

    def fmt(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("fp", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


QQ = Rationals()


def field_from_name(name: str):
    """Parse a field spec: "qq" or "fp:<prime>"."""
    if name == "qq":
        return QQ
    if name.startswith("fp:"):
        try:
            p = int(name[3:])
        except ValueError:
            raise ValueError(f"bad prime field spec: {name!r}") from None
        return PrimeField(p)
    raise ValueError(f"unknown field: {name!r} (expected 'qq' or 'fp:<p>')")
