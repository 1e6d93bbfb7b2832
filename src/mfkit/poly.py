"""Sparse multivariate polynomials with exact coefficients.

A monomial is a tuple of non-negative exponents aligned with a fixed
variable list. A polynomial is one int dict `nums` from monomials to
nonzero int numerators plus one positive int denominator `den`: its
coefficient at m is nums[m]/den. The pair is kept canonical by the
field's `normalize`:

* over QQ, den is the least common denominator of the reduced
  coefficients, that is gcd(den, every numerator) == 1;
* over GF(p), every numerator lies in [1, p) and den is 1.

So equal polynomials have equal dicts and equal denominators, and every
operation works on ints: it accumulates int numerators over a common
denominator and normalizes once at the end. When every denominator
involved is 1 (always over GF(p), and for integral data over QQ), no
content gcd is taken. The zero polynomial is ({}, 1).

Two monomial orders are provided (lex and graded reverse lex, each with
an optional variable precedence), together with a parser and a
canonical printer whose output round-trips through the parser byte for
byte.

Expression grammar accepted by the parser (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' nat)?
    atom   := nat ('/' posnat)? | var | '(' expr ')'

Variables are ASCII identifiers; exponents are non-negative integer
literals; `a/b` denotes an exact field coefficient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, lcm
from operator import add, le, sub

from .errors import (
    DivisionByZeroInCoefficient,
    FieldMismatch,
    ParseError,
    UnknownVariable,
    VariableMismatch,
)
from .fields import PrimeField, Rationals

Exps = tuple[int, ...]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def total_degree(exps: Exps) -> int:
    return sum(exps)


def mono_mul(a: Exps, b: Exps) -> Exps:
    return tuple(map(add, a, b))


def mono_divides(a: Exps, b: Exps) -> bool:
    """True when the monomial a divides b."""
    return all(map(le, a, b))


def mono_div(a: Exps, b: Exps) -> Exps:
    """Quotient exponent tuple a / b (caller guarantees divisibility)."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Exps, b: Exps) -> Exps:
    return tuple(map(max, a, b))


@dataclass(frozen=True)
class MonomialOrder:
    """A global monomial order: "lex" or "grevlex" with a precedence.

    `precedence` lists variable indices from most to least significant.
    The induced order is total and multiplicative, and 1 is minimal.
    """

    kind: str
    precedence: Exps

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown order kind: {self.kind!r}")
        if sorted(self.precedence) != list(range(len(self.precedence))):
            raise ValueError("precedence must be a permutation of variable indices")

    @classmethod
    def lex(cls, nvars: int, precedence=None) -> "MonomialOrder":
        return cls("lex", tuple(precedence or range(nvars)))

    @classmethod
    def grevlex(cls, nvars: int, precedence=None) -> "MonomialOrder":
        return cls("grevlex", tuple(precedence or range(nvars)))

    def key(self, exps: Exps) -> tuple[int, ...]:
        """Sort key, a flat tuple of ints: bigger key means bigger monomial.

        Lex keys are the exponents in precedence order. Grevlex keys are
        the total degree followed by the negated exponents, least
        significant variable first. Keys of distinct monomials differ,
        and negating every entry reverses the order, which is how
        `divide_full` turns them into min-heap keys.
        """
        if len(exps) != len(self.precedence):
            raise VariableMismatch(
                f"monomial has {len(exps)} exponents, order expects {len(self.precedence)}"
            )
        perm = [exps[i] for i in self.precedence]
        if self.kind == "lex":
            return tuple(perm)
        return (sum(exps), *[-e for e in reversed(perm)])

    def compare(self, a: Exps, b: Exps) -> int:
        """Three-way comparison: -1, 0 or 1 as a <, =, > b."""
        if len(a) != len(b):
            raise VariableMismatch("monomials have different variable counts")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)


@dataclass(frozen=True)
class PolyRing:
    """Ambient polynomial ring: a variable list over a coefficient field."""

    vars: tuple[str, ...]
    field: Rationals | PrimeField

    def __post_init__(self):
        if not self.vars:
            raise ValueError("variable list must be nonempty")
        seen = set()
        for v in self.vars:
            if not _IDENT_RE.fullmatch(v):
                raise ValueError(f"bad variable name: {v!r}")
            if v in seen:
                raise ValueError(f"duplicate variable name: {v!r}")
            seen.add(v)

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const_int(1)

    def from_ints(self, nums: dict, den: int = 1) -> "Polynomial":
        """The polynomial nums/den, for int numerators and a nonzero int
        denominator, in canonical form."""
        return Polynomial(self, *self.field.normalize(nums, den))

    def const(self, c) -> "Polynomial":
        """The constant polynomial of a scalar: an int, or an exact
        rational with int numerator and denominator."""
        return self.monomial((0,) * self.nvars, c)

    def const_int(self, n: int) -> "Polynomial":
        return self.const(self.field.from_int(n))

    def var(self, i: int) -> "Polynomial":
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: 1})

    def monomial(self, exps: Exps, coeff=1) -> "Polynomial":
        """coeff * x^exps, for a scalar coeff as in `const`."""
        if coeff == 1:  # canonical in every field as it stands
            return Polynomial(self, {tuple(exps): 1})
        return self.from_ints({tuple(exps): coeff.numerator}, coeff.denominator)

    def parse(self, text: str) -> "Polynomial":
        return _Parser(self, text).run()

    def default_order(self) -> MonomialOrder:
        return MonomialOrder.grevlex(self.nvars)

    def __repr__(self) -> str:
        return f"PolyRing({','.join(self.vars)}; {self.field!r})"


class Polynomial:
    """Immutable sparse polynomial over a `PolyRing`: nums/den.

    `nums` maps exponent tuples to nonzero int numerators and `den` is
    one positive int denominator, in the canonical form described in
    the module docstring. The constructor trusts its arguments to be
    canonical; `PolyRing.from_ints` normalizes. Consumers must not
    mutate `nums`.
    """

    __slots__ = ("ring", "nums", "den", "_lm")

    def __init__(self, ring: PolyRing, nums: dict, den: int = 1):
        self.ring = ring
        self.nums = nums
        self.den = den
        self._lm = None  # (order, leading monomial) of the last query

    def _check_compatible(self, other: "Polynomial"):
        if self.ring.vars != other.ring.vars:
            raise VariableMismatch(
                f"variable lists differ: {self.ring.vars} vs {other.ring.vars}"
            )
        if self.ring.field != other.ring.field:
            raise FieldMismatch(
                f"coefficient fields differ: {self.ring.field!r} vs {other.ring.field!r}"
            )

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.den == other.den and self.nums == other.nums

    __hash__ = None

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, add)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, sub)

    def _combine(self, other: "Polynomial", op) -> "Polynomial":
        """Termwise self op other, for op int addition or subtraction,
        over the lcm of the two denominators."""
        self._check_compatible(other)
        if not other.nums:
            return self
        da, db = self.den, other.den
        if da == db:
            ka = kb = 1
            den = da
        else:
            den = lcm(da, db)
            ka, kb = den // da, den // db
        res = dict(self.nums) if ka == 1 else {m: c * ka for m, c in self.nums.items()}
        get = res.get
        for m, c in other.nums.items():
            res[m] = op(get(m, 0), c * kb)
        return Polynomial(self.ring, *self.ring.field.normalize(res, den))

    def __neg__(self) -> "Polynomial":
        p = self.ring.field.characteristic
        if p:
            nums = {m: p - c for m, c in self.nums.items()}
        else:
            nums = {m: -c for m, c in self.nums.items()}
        return Polynomial(self.ring, nums, self.den)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        res: dict = {}
        get = res.get
        for m1, c1 in self.nums.items():
            for m2, c2 in other.nums.items():
                m = tuple(map(add, m1, m2))
                res[m] = get(m, 0) + c1 * c2
        return Polynomial(self.ring, *self.ring.field.normalize(res, self.den * other.den))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative exponent")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, num: int, den: int = 1) -> "Polynomial":
        """Multiply by the scalar num/den, for ints num and den != 0."""
        return self.mul_term((0,) * self.ring.nvars, num, den)

    def mul_term(self, exps: Exps, num: int = 1, den: int = 1) -> "Polynomial":
        """Multiply by the single term (num/den) * x^exps."""
        nums = {mono_mul(m, exps): c * num for m, c in self.nums.items()}
        return Polynomial(self.ring, *self.ring.field.normalize(nums, self.den * den))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.nums:
            return -1
        return max(total_degree(m) for m in self.nums)

    def is_homogeneous(self) -> bool:
        degs = {total_degree(m) for m in self.nums}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None (zero or mixed)."""
        degs = {total_degree(m) for m in self.nums}
        if len(degs) == 1:
            return degs.pop()
        return None

    def leading_monomial(self, order: MonomialOrder) -> Exps:
        """The largest monomial under `order`, cached for the last order asked."""
        cached = self._lm
        if cached is not None and cached[0] == order:
            return cached[1]
        if not self.nums:
            raise ValueError("zero polynomial has no leading monomial")
        lm = max(self.nums, key=order.key)
        self._lm = (order, lm)
        return lm

    def leading_coefficient(self, order: MonomialOrder) -> tuple[int, int]:
        """The leading coefficient as an int pair (numerator, denominator)."""
        return self.nums[self.leading_monomial(order)], self.den

    def monic(self, order: MonomialOrder) -> tuple["Polynomial", int, int]:
        """(self / lc, num, den): the monic associate and the scalar
        num/den it was multiplied by."""
        lc, den = self.leading_coefficient(order)
        return self.scale(den, lc), den, lc

    def __repr__(self) -> str:
        return f"<{format_canonical(self, self.ring.default_order())}>"


def sum_of_products(ring: PolyRing, pairs) -> Polynomial:
    """sum_k a_k*b_k over the (a_k, b_k) in `pairs`, exactly, in `ring`.

    With L the lcm of the products of the factors' denominators d_a*d_b,
    it accumulates one int dict of sum_k (L/(d_a*d_b)) * nums_a*nums_b
    and normalizes it over L once at the end. When L == 1 (always over
    GF(p)) that takes no gcd, only the reduction of each numerator.
    """
    prods = []
    den = 1
    for a, b in pairs:
        for f in (a, b):
            if f.ring is not ring and f.ring != ring:
                ring.zero()._check_compatible(f)
        if a.nums and b.nums:
            d = a.den * b.den
            prods.append((a.nums, b.nums, d))
            if d != 1:
                den = lcm(den, d)
    acc: dict = {}
    get = acc.get
    for fa, fb, d in prods:
        k = den // d
        for ma, ca in fa.items():
            ca *= k
            for mb, cb in fb.items():
                m = tuple(map(add, ma, mb))
                acc[m] = get(m, 0) + ca * cb
    return Polynomial(ring, *ring.field.normalize(acc, den))


def _format_monomial(ring: PolyRing, exps: Exps) -> str:
    parts = []
    for name, e in zip(ring.vars, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_canonical(p: Polynomial, order: MonomialOrder) -> str:
    """Print terms in strictly descending monomial order.

    Output is canonical: equal polynomials print byte-identically and
    `ring.parse(format_canonical(p, order)) == p`.
    """
    if p.is_zero():
        return "0"
    den = p.den
    out = []
    for i, m in enumerate(sorted(p.nums, key=order.key, reverse=True)):
        num = p.nums[m]
        # Over GF(p) numerators are in [1, p) and den is 1, so the sign
        # and the reduction below only act over QQ.
        sign = "-" if num < 0 else "+"
        mag = abs(num)
        g = gcd(mag, den) if den != 1 else 1
        text = str(mag // g) if g == den else f"{mag // g}/{den // g}"
        mono_str = _format_monomial(p.ring, m)
        if not mono_str:
            body = text
        elif text == "1":
            body = mono_str
        else:
            body = f"{text}*{mono_str}"
        if i == 0:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f" {sign} {body}")
    return "".join(out)


class _Parser:
    """Recursive-descent parser for the expression grammar above."""

    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.text = text
        self.pos = 0
        self.var_index = {name: i for i, name in enumerate(ring.vars)}

    def run(self) -> Polynomial:
        self._skip_ws()
        if self.pos >= len(self.text):
            raise ParseError("empty expression", self.pos)
        p = self._expr()
        self._skip_ws()
        if self.pos < len(self.text):
            raise ParseError(
                f"unexpected character {self.text[self.pos]!r}", self.pos
            )
        return p

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> Polynomial:
        p = self._term()
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                p = p + self._term()
            elif ch == "-":
                self.pos += 1
                p = p - self._term()
            else:
                return p

    def _term(self) -> Polynomial:
        p = self._factor()
        while self._peek() == "*":
            self.pos += 1
            p = p * self._factor()
        return p

    def _factor(self) -> Polynomial:
        if self._peek() == "-":
            self.pos += 1
            return -self._factor()
        p = self._atom()
        if self._peek() == "^":
            self.pos += 1
            n = self._nat("exponent")
            return p**n
        return p

    def _nat(self, what: str) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", start)
        return int(self.text[start : self.pos])

    def _atom(self) -> Polynomial:
        ch = self._peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            p = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return p
        if ch.isdigit():
            num = self._nat("integer")
            if self._peek() == "/":
                self.pos += 1
                den = self._nat("denominator")
                try:
                    c = self.ring.field.ratio(num, den)
                except DivisionByZeroInCoefficient as exc:
                    raise DivisionByZeroInCoefficient(str(exc), start) from None
                return self.ring.const(c)
            return self.ring.const_int(num)
        m = _IDENT_RE.match(self.text, self.pos)
        if m:
            name = m.group(0)
            idx = self.var_index.get(name)
            if idx is None:
                raise UnknownVariable(f"unknown variable {name!r}", start)
            self.pos = m.end()
            return self.ring.var(idx)
        if ch == "":
            raise ParseError("unexpected end of expression", self.pos)
        raise ParseError(f"unexpected character {ch!r}", self.pos)
