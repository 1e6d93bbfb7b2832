"""Exact coefficient fields: the rationals and prime fields.

Coefficients live on ints. A polynomial, a linear-algebra row or a
normal-form vector holds an int numerator per entry and, where a
denominator is needed, one positive int denominator for all of them.
The field object supplies the few integer steps that differ between QQ
and GF(p):

* `normalize(nums, den)` makes the pair canonical. Over QQ it drops
  zero entries, makes den positive and divides out the common gcd of den
  and the numerators, so that den is the least common denominator of the
  reduced coefficients. Over GF(p) it reduces every numerator modulo p,
  multiplies by the inverse of den, and returns den 1. Equal values then
  give equal pairs.
* `cancel(c, a)` picks the multipliers that cancel a leading term in
  the fraction-free loops (division, elimination, back substitution).
* `reduce_int(n)` reduces an int coefficient: modulo p, or not at all
  over QQ.
* `canonical_row(nums)` is the canonical numerators of nums over
  denominator 1: nums itself when it is canonical already (no zero entry
  and, over GF(p), every entry in [1, p)), which takes one scan of its
  values and no copy, else `normalize(nums, 1)`'s.

Scalars at the public surface are ints, or over QQ anything with int
`numerator` and `denominator` (a `fractions.Fraction`). `from_int` and
`ratio` build them; `ratio` over QQ is the one place that builds a
`Fraction`, for coefficients parsed from text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

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
    characteristic = 0

    def from_int(self, n: int) -> int:
        return n

    def ratio(self, num: int, den: int) -> Fraction:
        if den == 0:
            raise DivisionByZeroInCoefficient("zero denominator in coefficient")
        return Fraction(num, den)

    def normalize(self, nums: dict, den: int) -> tuple[dict, int]:
        """The canonical (nums, den) of nums/den: no zero entry, den > 0,
        gcd(den, every numerator) == 1; the zero value is ({}, 1)."""
        nums = {k: c for k, c in nums.items() if c}
        if den == 1 or not nums:
            return nums, 1
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {k: c // g for k, c in nums.items()}
            den //= g
        return nums, den

    def canonical_row(self, nums: dict) -> dict:
        """nums when no entry is zero, else a copy without the zeros."""
        return nums if all(nums.values()) else self.normalize(nums, 1)[0]

    def cancel(self, c: int, a: int) -> tuple[int, int]:
        """(s, t) with s*c == t*a and s > 0 as small as possible, so that
        t/s is c/a in lowest terms.

        Scaling a pending term c*x^m by s and subtracting t*x^u times a
        divisor with leading term a*x^(m-u) cancels it.
        """
        g = gcd(c, a)
        if a < 0:
            g = -g
        return a // g, c // g

    def reduce_int(self, n: int) -> int:
        return n

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
        self.characteristic = p
        self.name = f"fp:{p}"

    def from_int(self, n: int) -> int:
        return n % self.p

    def _inverse(self, den: int) -> int:
        d = den % self.p
        if d == 0:
            raise DivisionByZeroInCoefficient(f"denominator is zero modulo {self.p}")
        return pow(d, -1, self.p)

    def ratio(self, num: int, den: int) -> int:
        return num * self._inverse(den) % self.p

    def normalize(self, nums: dict, den: int) -> tuple[dict, int]:
        """The canonical (nums, 1) of nums/den: every numerator in
        [1, p), zero entries dropped."""
        p = self.p
        if den != 1:
            inv = self._inverse(den)
            return {k: v for k, c in nums.items() if (v := c * inv % p)}, 1
        return {k: v for k, c in nums.items() if (v := c % p)}, 1

    def canonical_row(self, nums: dict) -> dict:
        """nums when every entry lies in [1, p), else its reduced copy."""
        values = nums.values()
        if not nums or (0 < min(values) and max(values) < self.p):
            return nums
        return self.normalize(nums, 1)[0]

    def cancel(self, c: int, a: int) -> tuple[int, int]:
        """(s, t) with s*c == t*a: here s = 1 and t = c/a."""
        return 1, c * pow(a, -1, self.p) % self.p

    def reduce_int(self, n: int) -> int:
        return n % self.p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("fp", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


QQ = Rationals()


def field_from_name(name: str):
    """Parse a field spec: "qq" or "fp:<prime>", the prime in ASCII digits."""
    if name == "qq":
        return QQ
    if name.startswith("fp:"):
        if not re.fullmatch(r"fp:[0-9]+", name):
            raise ValueError(f"bad prime field spec: {name!r}")
        return PrimeField(int(name[3:]))
    raise ValueError(f"unknown field: {name!r} (expected 'qq' or 'fp:<p>')")
