"""Sparse multivariate polynomials with exact coefficients.

A monomial is a tuple of non-negative exponents aligned with a fixed
variable list; a polynomial is a finite map from monomials to nonzero
field elements. The zero polynomial is the empty map. Two monomial
orders are provided (lex and graded reverse lex, each with an optional
variable precedence), together with a parser and a canonical printer
whose output round-trips through the parser byte for byte.

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
from math import lcm
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

    def const(self, c) -> "Polynomial":
        zero_mono = (0,) * self.nvars
        if c == self.field.zero:
            return self.zero()
        return Polynomial(self, {zero_mono: c})

    def const_int(self, n: int) -> "Polynomial":
        return self.const(self.field.from_int(n))

    def var(self, i: int) -> "Polynomial":
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: self.field.one})

    def monomial(self, exps: Exps, coeff=None) -> "Polynomial":
        c = self.field.one if coeff is None else coeff
        if c == self.field.zero:
            return self.zero()
        return Polynomial(self, {tuple(exps): c})

    def parse(self, text: str) -> "Polynomial":
        return _Parser(self, text).run()

    def default_order(self) -> MonomialOrder:
        return MonomialOrder.grevlex(self.nvars)

    def __repr__(self) -> str:
        return f"PolyRing({','.join(self.vars)}; {self.field!r})"


class Polynomial:
    """Immutable sparse polynomial over a `PolyRing`.

    `terms` maps exponent tuples to nonzero field elements; consumers
    must not mutate it.
    """

    __slots__ = ("ring", "terms", "_lm", "_int_form")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._lm = None  # (order, leading monomial) of the last query
        self._int_form = None

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
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, self.ring.field.add)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, self.ring.field.sub)

    def _combine(self, other: "Polynomial", op) -> "Polynomial":
        """Termwise self op other, for op the field's add or sub."""
        self._check_compatible(other)
        zero = self.ring.field.zero
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = op(res.get(m, zero), c)
            if s == zero:
                res.pop(m, None)
            else:
                res[m] = s
        return Polynomial(self.ring, res)

    def __neg__(self) -> "Polynomial":
        field = self.ring.field
        return Polynomial(self.ring, {m: field.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        field = self.ring.field
        res: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = field.add(res.get(m, field.zero), field.mul(c1, c2))
                if s == field.zero:
                    res.pop(m, None)
                else:
                    res[m] = s
        return Polynomial(self.ring, res)

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

    def scale(self, c) -> "Polynomial":
        """Multiply by a field element."""
        field = self.ring.field
        if c == field.zero:
            return self.ring.zero()
        return Polynomial(self.ring, {m: field.mul(cc, c) for m, cc in self.terms.items()})

    def mul_term(self, exps: Exps, coeff) -> "Polynomial":
        """Multiply by a single term coeff * x^exps."""
        field = self.ring.field
        if coeff == field.zero:
            return self.ring.zero()
        return Polynomial(
            self.ring,
            {mono_mul(m, exps): field.mul(c, coeff) for m, c in self.terms.items()},
        )

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(total_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {total_degree(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None (zero or mixed)."""
        degs = {total_degree(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def leading_monomial(self, order: MonomialOrder) -> Exps:
        """The largest monomial under `order`, cached for the last order asked."""
        cached = self._lm
        if cached is not None and cached[0] == order:
            return cached[1]
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        lm = max(self.terms, key=order.key)
        self._lm = (order, lm)
        return lm

    def leading_coefficient(self, order: MonomialOrder):
        return self.terms[self.leading_monomial(order)]

    def integer_form(self) -> tuple[dict, int]:
        """(F, D) with F = D*self on int coefficients, from the field's
        `integer_form`; cached, as it does not depend on any order."""
        if self._int_form is None:
            self._int_form = self.ring.field.integer_form(self.terms)
        return self._int_form

    def __repr__(self) -> str:
        return f"<{format_canonical(self, self.ring.default_order())}>"


def sum_of_products(ring: PolyRing, pairs) -> Polynomial:
    """sum_k a_k*b_k over the (a_k, b_k) in `pairs`, exactly, in `ring`.

    Runs on the cached integer forms F = d*a of the factors: with L the
    lcm of the d_a*d_b, it accumulates one int dict of
    sum_k (L/(d_a*d_b)) * F_a*F_b and builds one field element per
    result term at the end. When L == 1 (always over GF(p)) that is the
    field's `from_int`, so no term pays for a gcd or a modular inverse.
    """
    field = ring.field
    prods = []
    den = 1
    for a, b in pairs:
        for f in (a, b):
            if f.ring is not ring and f.ring != ring:
                ring.zero()._check_compatible(f)
        if a.terms and b.terms:
            fa, da = a.integer_form()
            fb, db = b.integer_form()
            prods.append((fa, fb, da * db))
            den = lcm(den, da * db)
    acc: dict = {}
    get = acc.get
    for fa, fb, d in prods:
        k = den // d
        for ma, ca in fa.items():
            ca *= k
            for mb, cb in fb.items():
                m = tuple(map(add, ma, mb))
                acc[m] = get(m, 0) + ca * cb
    # A cancelled sum builds no element; over GF(p) a nonzero c may
    # still reduce to 0, which the walrus test drops.
    if den == 1:
        from_int = field.from_int
        return Polynomial(ring, {m: v for m, c in acc.items() if c and (v := from_int(c))})
    ratio = field.ratio
    return Polynomial(ring, {m: ratio(c, den) for m, c in acc.items() if c})


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
    field = p.ring.field
    rational = isinstance(field, Rationals)
    monos = sorted(p.terms, key=order.key, reverse=True)
    out = []
    for i, m in enumerate(monos):
        c = p.terms[m]
        mono_str = _format_monomial(p.ring, m)
        if rational and c < 0:
            sign = "-"
            mag = -c
        else:
            sign = "+"
            mag = c
        if not mono_str:
            body = field.fmt(mag)
        elif mag == field.one:
            body = mono_str
        else:
            body = f"{field.fmt(mag)}*{mono_str}"
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
