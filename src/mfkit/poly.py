"""Sparse multivariate polynomials with exact coefficients.

A monomial is one non-negative int, packed. With n variables, field i
(bits i*WIDTH up to (i+1)*WIDTH) holds the exponent of variable i, with
variable 0 in the least significant field, and field n, the top one,
holds the total degree. The top bit of every field is a guard bit that
stays clear, because every exponent and total degree is at most
MAX_DEGREE = 2^(WIDTH-1) - 1 = 32767. On that layout:

* the product of two monomials is the sum of their ints, and the
  quotient is the difference;
* a divides b iff (b - a) & ring.guard == 0, with ring.guard the
  exponent fields' guard bits: the lowest field of b - a that would go
  negative borrows from the field above and sets its own guard bit
  instead;
* the total degree is m >> ring.shift, and of two monomials the bigger
  int has the bigger (or equal) total degree;
* every order key is a linear function of the exponents
  (`MonomialOrder.key`), so key(a*b) == key(a) + key(b).

A monomial past MAX_DEGREE never wraps: `PolyRing.pack`, products,
powers, lcms and division steps raise `BudgetExceeded` instead. The
range check is one comparison per produced monomial or one `max` over a
result's keys. Exponent tuples appear only at the edges:
`PolyRing.monomial`, `PolyRing.pack`/`PolyRing.exps` and the printer.

A polynomial is one int dict `nums` from packed monomials to nonzero int
numerators plus one positive int denominator `den`: its coefficient at m
is nums[m]/den. The pair is kept canonical by the field's `normalize`:

* over QQ, den is the least common denominator of the reduced
  coefficients, that is gcd(den, every numerator) == 1;
* over GF(p), every numerator lies in [1, p) and den is 1.

So equal polynomials have equal dicts and equal denominators, and every
operation works on ints: it accumulates int numerators over a common
denominator and normalizes once at the end. When every denominator
involved is 1 (always over GF(p), and for integral data over QQ), no
content gcd is taken. The zero polynomial is ({}, 1).

Two monomial orders are provided, lex and graded reverse lex, each
ranking the variables in declaration order, together with a parser and
a canonical printer whose output round-trips through the parser byte
for byte.

Expression grammar accepted by the parser (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' nat)?
    atom   := nat ('/' posnat)? | var | '(' expr ')'

Variables are ASCII identifiers; `nat` is a literal of ASCII digits
0-9 (no other Unicode digit, no underscore), so exponents are
non-negative; `a/b` denotes an exact field coefficient. A run of signs
is read in a loop, and parentheses nest at most MAX_NESTING deep: the
parser recurses once per level, so a deeper expression is a ParseError
and never exhausts the interpreter's stack. A literal longer than the
interpreter converts from decimal text (4300 digits by default since
CPython 3.11) is a ParseError as well, and a coefficient too long to
print is a BudgetExceeded from `format_canonical`; neither changes the
interpreter's limit. Over QQ, a power whose coefficients could pass
MAX_COEFF_BITS bits is a BudgetExceeded before any product.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field
from math import gcd, lcm
from operator import add, sub

from .errors import (
    BudgetExceeded,
    DivisionByZeroInCoefficient,
    FieldMismatch,
    ParseError,
    UnknownVariable,
    VariableMismatch,
)
from .fields import PrimeField, Rationals

WIDTH = 16
"""Bits per field of a packed monomial, its guard bit included."""

MAX_DEGREE = (1 << (WIDTH - 1)) - 1
"""The largest exponent and total degree a packed monomial holds."""

MAX_COEFF_BITS = 1 << 20
"""The largest coefficient bit length a power may promise over QQ."""

MAX_NESTING = 200
"""The deepest parenthesis nesting the parser accepts."""

_FIELD = (1 << WIDTH) - 1

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def past_range(degree: int) -> BudgetExceeded:
    """The error for a monomial of total degree past MAX_DEGREE."""
    return BudgetExceeded(
        f"monomial of total degree {degree} is past the packed range (at most {MAX_DEGREE})"
    )


@dataclass(frozen=True)
class MonomialOrder:
    """A global monomial order on `nvars` variables: "lex" or "grevlex".

    Variables rank in declaration order, variable 0 the most significant.
    The order is total and multiplicative, and 1 is minimal.
    """

    kind: str
    nvars: int
    # (bit offset, weight) per packed exponent field for lex, and the
    # degree field's offset for grevlex (else None).
    _weights: tuple = dataclass_field(init=False, repr=False, compare=False)
    _grevlex_shift: int | None = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown order kind: {self.kind!r}")
        n = self.nvars
        weights = tuple((v * WIDTH, 1 << (n - 1 - v) * WIDTH) for v in range(n))
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_grevlex_shift", n * WIDTH if self.kind == "grevlex" else None)

    @classmethod
    def lex(cls, nvars: int) -> "MonomialOrder":
        return cls("lex", nvars)

    @classmethod
    def grevlex(cls, nvars: int) -> "MonomialOrder":
        return cls("grevlex", nvars)

    def key(self, m: int) -> int:
        """Sort key of a packed monomial, an int: bigger key means bigger
        monomial.

        With B = 2^WIDTH and n variables, a lex key is
        sum_j e[j] * B^(n-1-j), and a grevlex key is
        deg * B^n - sum_j e[j] * B^j, which is 2*((m >> S) << S) - m with
        S the degree field's offset. Every exponent is below B, so these
        are positional numbers that compare as the orders do, and keys of
        distinct monomials differ. Both are linear in the exponents:
        key(a*b) == key(a) + key(b), which `divide_full` uses to key each
        new term with one addition.
        """
        s = self._grevlex_shift
        if s is not None:
            return 2 * (m >> s << s) - m
        return sum([((m >> shift) & _FIELD) * w for shift, w in self._weights])


@dataclass(frozen=True)
class PolyRing:
    """Ambient polynomial ring: a variable list over a coefficient field.

    `shift` is the bit offset of a packed monomial's degree field,
    `guard` the mask of its exponent fields' guard bits (the degree
    field's is never the first to catch a borrow, so divisibility needs
    only these), and `limit` the least int past the packed range: a
    monomial m is in range iff m < limit.
    """

    vars: tuple[str, ...]
    field: Rationals | PrimeField
    shift: int = dataclass_field(init=False, repr=False, compare=False)
    guard: int = dataclass_field(init=False, repr=False, compare=False)
    limit: int = dataclass_field(init=False, repr=False, compare=False)

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
        n = len(self.vars)
        object.__setattr__(self, "shift", n * WIDTH)
        object.__setattr__(self, "guard", sum(1 << (i * WIDTH + WIDTH - 1) for i in range(n)))
        object.__setattr__(self, "limit", (MAX_DEGREE + 1) << (n * WIDTH))

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def pack(self, exps) -> int:
        """The packed monomial of an exponent sequence. VariableMismatch
        for the wrong length, BudgetExceeded past MAX_DEGREE."""
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise VariableMismatch(
                f"monomial has {len(exps)} exponents, ring has {self.nvars} variables"
            )
        if min(exps) < 0:
            raise ValueError(f"negative exponent in {exps}")
        m = sum(exps)
        if m > MAX_DEGREE:
            raise past_range(m)
        for e in reversed(exps):
            m = m << WIDTH | e
        return m

    def exps(self, m: int) -> tuple[int, ...]:
        """The exponent tuple of a packed monomial."""
        return tuple([(m >> s) & _FIELD for s in range(0, self.shift, WIDTH)])

    def lcm(self, a: int, b: int) -> int:
        """The lcm of two packed monomials; BudgetExceeded when its total
        degree is past MAX_DEGREE.

        Adding the guard bits to a and subtracting b borrows within no
        field, and leaves a field's guard bit set iff a's exponent there
        is at least b's; that mask picks the larger exponent of each
        field. The degree is the sum of the fields, which multiplying by
        one 1 per field gathers in the top variable's field (every
        partial sum is below 2^WIDTH, so nothing carries).
        """
        shift = self.shift
        low = (1 << shift) - 1
        g = self.guard
        a &= low
        b &= low
        ge = ((a | g) - b) & g
        pick = ge - (ge >> (WIDTH - 1))
        e = (a & pick) | (b & ~pick)
        degree = (e * (low // _FIELD) >> (shift - WIDTH)) & _FIELD
        if degree > MAX_DEGREE:
            raise past_range(degree)
        return e | degree << shift

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {0: 1})

    def from_ints(self, nums: dict, den: int = 1) -> "Polynomial":
        """The polynomial nums/den, for int numerators on packed monomials
        and a nonzero int denominator, in canonical form."""
        return Polynomial(self, *self.field.normalize(nums, den))

    def const(self, c) -> "Polynomial":
        """The constant polynomial of a scalar: an int, or an exact
        rational with int numerator and denominator."""
        return self.from_ints({0: c.numerator}, c.denominator)

    def var(self, i: int) -> "Polynomial":
        return Polynomial(self, {1 << (i * WIDTH) | 1 << self.shift: 1})

    def monomial(self, exps, coeff=1) -> "Polynomial":
        """coeff * x^exps, for an exponent sequence and a scalar coeff as
        in `const`."""
        m = self.pack(exps)
        if coeff == 1:  # canonical in every field as it stands
            return Polynomial(self, {m: 1})
        return self.from_ints({m: coeff.numerator}, coeff.denominator)

    def parse(self, text: str) -> "Polynomial":
        return _Parser(self, text).run()

    def default_order(self) -> MonomialOrder:
        return MonomialOrder.grevlex(self.nvars)

    def __repr__(self) -> str:
        return f"PolyRing({','.join(self.vars)}; {self.field!r})"


class Polynomial:
    """Immutable sparse polynomial over a `PolyRing`: nums/den.

    `nums` maps packed monomials (see the module docstring: WIDTH-bit
    fields with guard bits, the total degree on top, every monomial at
    most MAX_DEGREE) to nonzero int numerators, and `den` is one
    positive int denominator, in the canonical form described in the
    module docstring. The constructor trusts its arguments to be
    canonical and in range; `PolyRing.from_ints` normalizes. Consumers
    must not mutate `nums`.
    """

    __slots__ = ("ring", "nums", "den", "_lm", "_tail")

    def __init__(self, ring: PolyRing, nums: dict, den: int = 1):
        self.ring = ring
        self.nums = nums
        self.den = den
        self._lm = None  # (order, leading monomial) of the last query
        self._tail = None  # (order, divisor data) of the last division by it

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
        return sum_of_products(self.ring, ((self, other),))

    def __pow__(self, n: int) -> "Polynomial":
        """self^n by repeated squaring; BudgetExceeded before any product
        when the result's degree would pass MAX_DEGREE, or over QQ when
        its coefficients could pass MAX_COEFF_BITS bits: with T terms and
        numerators and denominator at most c in absolute value, every
        numerator and the denominator of self^n are at most (T*c)^n."""
        if n < 0:
            raise ValueError("negative exponent")
        if self.nums and self.degree() * n > MAX_DEGREE:
            raise past_range(self.degree() * n)
        if self.nums and not self.ring.field.characteristic:
            c = max(self.den, *map(abs, self.nums.values()))
            bits = n * ((c - 1).bit_length() + (len(self.nums) - 1).bit_length())
            if bits > MAX_COEFF_BITS:
                raise BudgetExceeded(
                    f"power with coefficients of up to {bits} bits (at most {MAX_COEFF_BITS})"
                )
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
        nums = {m: c * num for m, c in self.nums.items()}
        return Polynomial(self.ring, *self.ring.field.normalize(nums, self.den * den))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.nums:
            return -1
        return max(self.nums) >> self.ring.shift

    def is_homogeneous(self) -> bool:
        return self.homogeneous_degree() is not None or not self.nums

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None (zero or mixed)."""
        if not self.nums:
            return None
        shift = self.ring.shift
        low, high = min(self.nums) >> shift, max(self.nums) >> shift
        return low if low == high else None

    def leading_monomial(self, order: MonomialOrder) -> int:
        """The largest monomial under `order`, cached for the last order
        asked. VariableMismatch when the order is for another number of
        variables: a packed monomial does not carry its length."""
        cached = self._lm
        if cached is not None and (cached[0] is order or cached[0] == order):
            return cached[1]
        if order.nvars != self.ring.nvars:
            raise VariableMismatch(
                f"order has {order.nvars} variables, ring has {self.ring.nvars}"
            )
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

    Checks every factor's ring (VariableMismatch or FieldMismatch for a
    foreign one), then sums the nonzero products in one `sum_of_terms`
    call. `Polynomial.__mul__` is its one-pair case.
    """
    terms = []
    for a, b in pairs:
        for f in (a, b):
            if f.ring is not ring and f.ring != ring:
                ring.zero()._check_compatible(f)
        if a.nums and b.nums:
            terms.append((a.nums, b.nums, a.den * b.den))
    return sum_of_terms(ring, terms)


def sum_of_terms(ring: PolyRing, terms) -> Polynomial:
    """sum_k nums_a*nums_b/d over the (nums_a, nums_b, d) in `terms`.

    Each term is a product of two numerator dicts over the signed
    denominator d, a nonzero int whose sign is the term's: a negated
    product costs nothing per monomial pair. With L the lcm of the |d|,
    it accumulates one int dict of sum_k (L/d) * nums_a*nums_b, the
    factor with fewer terms in the outer loop, so the multiplier L/d is
    one multiply per outer term and each monomial product one int
    addition. The sum is normalized over L once at the end; when L == 1
    (always over GF(p)) the accumulator itself becomes the result if
    `canonical_row` finds it canonical. BudgetExceeded when a product
    monomial is past the packed range (one `max` over the result's keys:
    a product of two in-range monomials is exact, so it cannot wrap).
    No ring is checked here: the caller vouches that every dict belongs
    to `ring` (`sum_of_products` checks its factors, and
    `tower.matrix_sum_of_products` reads RingMatrix entries, which are
    in the tower's ring by construction).
    """
    den = 1
    for _, _, d in terms:
        if d != 1 and d != -1:
            den = lcm(den, d)
    acc: dict = {}
    get = acc.get
    for fa, fb, d in terms:
        if len(fa) > len(fb):
            fa, fb = fb, fa
        k = den // d
        fb = fb.items()
        for ma, ca in fa.items():
            if k != 1:
                ca *= k
            for mb, cb in fb:
                m = ma + mb
                acc[m] = get(m, 0) + ca * cb
    if acc:
        top = max(acc)
        if top >= ring.limit:
            raise past_range(top >> ring.shift)
    if den == 1:
        return Polynomial(ring, ring.field.canonical_row(acc))
    return Polynomial(ring, *ring.field.normalize(acc, den))


def _format_monomial(ring: PolyRing, m: int) -> str:
    parts = []
    for name, e in zip(ring.vars, ring.exps(m)):
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
        try:
            text = str(mag // g) if g == den else f"{mag // g}/{den // g}"
        except ValueError:  # past the interpreter's int-to-text digit limit
            bits = max(mag // g, den // g).bit_length()
            raise BudgetExceeded(f"coefficient too long to print (a {bits}-bit integer)") from None
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
        self.depth = 0
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
        """The sum of the terms, as one `sum_of_products` call pairing
        each with 1 or -1, so a sum of T terms costs time linear in T."""
        one = self.ring.one()
        terms = [(self._term(), one)]
        while (ch := self._peek()) in ("+", "-"):
            self.pos += 1
            terms.append((self._term(), one if ch == "+" else -one))
        return terms[0][0] if len(terms) == 1 else sum_of_products(self.ring, terms)

    def _term(self) -> Polynomial:
        p = self._factor()
        while self._peek() == "*":
            self.pos += 1
            p = p * self._factor()
        return p

    def _factor(self) -> Polynomial:
        negate = False
        while self._peek() == "-":
            self.pos += 1
            negate = not negate
        p = self._atom()
        if self._peek() == "^":
            self.pos += 1
            p = p ** self._nat("exponent")
        return -p if negate else p

    def _nat(self, what: str) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's text-to-int digit limit
            raise ParseError(f"{what} of {self.pos - start} digits is too long", start) from None

    def _atom(self) -> Polynomial:
        ch = self._peek()
        start = self.pos
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", start)
            self.pos += 1
            self.depth += 1
            p = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            self.depth -= 1
            return p
        if "0" <= ch <= "9":
            num = self._nat("integer")
            if self._peek() == "/":
                self.pos += 1
                den = self._nat("denominator")
                try:
                    c = self.ring.field.ratio(num, den)
                except DivisionByZeroInCoefficient as exc:
                    raise DivisionByZeroInCoefficient(str(exc), start) from None
                return self.ring.const(c)
            return self.ring.const(self.ring.field.from_int(num))
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
