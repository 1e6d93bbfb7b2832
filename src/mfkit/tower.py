"""Ring towers and matrix algebra over their quotients.

A tower packages two quotients of an ambient polynomial ring S: the
intermediate quotient R = S/(mid) by part of a regular sequence (level
MID, where matrix factorizations of w live), and the full quotient
R/(w) by the whole sequence (level QUOT, where the reduced 2-periodic
complexes live). Given the sequence generators and the coordinates of a
distinguished element w in their span, the constructor drops the
generator at the last nonzero coordinate to get the generators of the
intermediate ideal, materializes the two quotient ideals with Groebner
bases, and exposes normal forms so that ring equality at both levels is
decidable. A normal form modulo a reduced Groebner basis is linear in
the polynomial, and a tower keeps its bases for life, so it reduces
each monomial once per level and sums the images kept in a table (the
normal-form table of FGLM: Faugere, Gianni, Lazard and Mora, "Efficient
computation of zero-dimensional Groebner bases by change of ordering",
J. Symbolic Comput. 16, 1993).
"""

from __future__ import annotations

import enum
import functools
import operator
from math import lcm
from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    LevelMismatch,
    TowerMismatch,
    VerificationFailure,
    ZeroVector,
)
from .groebner import (
    DivisionOracle,
    GroebnerBasis,
    Ideal,
    buchberger_basis,
    krull_dimension,
    linear_image,
    monomials_of_degree,
    normal_form,
)
from .poly import (
    MonomialOrder,
    Polynomial,
    PolyRing,
    format_canonical,
    sum_of_products,
    sum_of_terms,
)


class Level(enum.IntEnum):
    """The two quotient levels of a tower, MID < QUOT: MID is R = S/(mid)
    and QUOT is R/(w)."""

    MID = 1
    QUOT = 2


@dataclass
class CiReport:
    """Validation report for a candidate regular-sequence presentation."""

    in_square_of_max_ideal: tuple[bool, ...]
    homogeneous: bool
    expected_dimension: int | None
    computed_dimension: int | None
    regular: bool | None  # None means "unchecked" (inhomogeneous input)

    @property
    def all_in_square(self) -> bool:
        return all(self.in_square_of_max_ideal)

    @property
    def ok(self) -> bool:
        return self.all_in_square and self.regular is not False

    def lines(self) -> list[str]:
        out = []
        for i, good in enumerate(self.in_square_of_max_ideal):
            verdict = "ok" if good else "violated (term of degree < 2)"
            out.append(f"generator {i}: max-ideal-square membership {verdict}")
        if not self.homogeneous:
            out.append("regularity: unchecked (inhomogeneous generators)")
        elif self.regular:
            out.append(
                f"regularity: ok (quotient dimension {self.computed_dimension}"
                f" = {self.expected_dimension} expected)"
            )
        else:
            out.append(
                f"regularity: FAILED (quotient dimension {self.computed_dimension},"
                f" expected {self.expected_dimension})"
            )
        return out


def _ci_report(ring: PolyRing, gens: list, deep_basis) -> CiReport:
    """The CiReport of `gens`; `deep_basis()` returns the reduced basis of (gens).

    `deep_basis` is called only when every generator is homogeneous, as
    only the regularity check needs it, so an inhomogeneous presentation
    is judged without a Groebner basis.
    """
    in_square = tuple((not g.is_zero()) and min(g.nums) >> ring.shift >= 2 for g in gens)
    if not all(g.is_homogeneous() for g in gens):
        return CiReport(in_square, False, None, None, None)
    expected = ring.nvars - len(gens)
    computed = krull_dimension(deep_basis(), ring.nvars)
    return CiReport(in_square, True, expected, computed, computed == expected)


def validate_ci_presentation(ring: PolyRing, seq_gens, order: MonomialOrder | None = None) -> CiReport:
    """Check that the sequence generators present a complete intersection.

    Verifies membership in the square of the maximal ideal (every term of
    total degree at least 2) and, when all generators are homogeneous,
    the regular-sequence criterion: the quotient dimension must drop by
    exactly the number of generators. Inhomogeneous input yields
    regular=None (unchecked premise).
    """
    order = order or ring.default_order()
    gens = list(seq_gens)
    return _ci_report(ring, gens, lambda: buchberger_basis(Ideal(tuple(gens), order)))


class RingTower:
    """The tower S -> R = S/(mid) -> R/(w) with the distinguished element w.

    Fields:
      ring         ambient polynomial ring
      order        monomial order used for all bases
      seq_gens     the regular sequence generating the deep quotient ideal
      w_coords     coordinates of w in the span of the sequence images,
                   each an int pair (numerator, denominator) in lowest
                   terms (denominator 1 over GF(p))
      mid_gens     seq_gens without the generator at the last nonzero
                   coordinate (empty when the sequence has length 1)
      w            the distinguished element, a non-zerodivisor at level MID
      mid_basis    reduced Groebner basis of (mid_gens): the oracle's mid basis
      quot_basis   reduced Groebner basis of (mid_gens + w), which is the
                   ideal (seq_gens): the oracle's combined basis
      validation   the CiReport of seq_gens
      oracle       the DivisionOracle for exact division by w at level MID

    Normal forms at MID and QUOT are read off one table per level, which
    maps a packed monomial to the (nums, den) of its normal form: a
    polynomial's normal form is the sum of its terms' table entries over
    one denominator, normalized once. A monomial enters its level's
    table on first use, by one reduction, or with no reduction when no
    leading monomial of the level's basis divides it.
    """

    __slots__ = (
        "ring",
        "order",
        "seq_gens",
        "w_coords",
        "mid_gens",
        "w",
        "mid_basis",
        "quot_basis",
        "validation",
        "oracle",
        "_std_monos",
        "_std_index",
        "_tables",
        "_quot_rows",
    )

    def __init__(self, ring, order, seq_gens, w_coords, mid_gens, w, validation, oracle):
        self.ring = ring
        self.order = order
        self.seq_gens = seq_gens
        self.w_coords = w_coords
        self.mid_gens = mid_gens
        self.w = w
        self.mid_basis = oracle.mid_basis
        self.quot_basis = oracle.combined
        self.validation = validation
        self.oracle = oracle
        self._std_monos = {}
        self._std_index = {}
        self._tables = {Level.MID: {}, Level.QUOT: {}}  # monomial -> (nums, den)
        self._quot_rows = {}

    def normal_form(self, p: Polynomial, level: Level) -> Polynomial:
        """p's normal form at `level`: p itself when the level's basis is
        empty, else the sum of its monomials' table entries.
        FieldMismatch or VariableMismatch for a polynomial from another
        ring, raised first, at every level."""
        if p.ring is not self.ring:
            p._check_compatible(self.w)
        basis = self.mid_basis if level == Level.MID else self.quot_basis
        if not basis.polys:
            return p
        table = self._tables[level]
        return linear_image(p, [table.get(m) or self._image(m, level) for m in p.nums])

    def _image(self, mono: int, level: Level) -> tuple[dict, int]:
        """The (nums, den) of the monomial's normal form at `level`,
        computed once and kept in the level's table."""
        basis = self.mid_basis if level == Level.MID else self.quot_basis
        order, guard = self.order, self.ring.guard
        if all((mono - b.leading_monomial(order)) & guard for b in basis.polys):
            image = ({mono: 1}, 1)
        else:
            nf = normal_form(Polynomial(self.ring, {mono: 1}), basis)
            image = (nf.nums, nf.den)
        self._tables[level][mono] = image
        return image

    def is_graded(self) -> bool:
        """True when the deep quotient ideal is homogeneous."""
        return all(g.is_homogeneous() for g in self.seq_gens) and self.w.is_homogeneous()

    def standard_monomials(self, degree: int) -> list:
        """Monomial basis of the QUOT-level graded piece of this degree,
        as packed monomials in `monomials_of_degree` order; empty for a
        negative degree."""
        monos = self._std_monos.get(degree)
        if monos is None:
            ring = self.ring
            guard = ring.guard
            lms = [b.leading_monomial(self.order) for b in self.quot_basis.polys]
            monos = [
                m
                for m in map(ring.pack, monomials_of_degree(ring.nvars, degree))
                if all((m - lm) & guard for lm in lms)
            ]
            self._std_monos[degree] = monos
        return monos

    def quot_coords(self, mono: int) -> tuple[list, int]:
        """The QUOT normal form of a monomial, as int coordinates.

        Returns (coords, den) with coords a list of (k, c) over ints: the
        normal form of `mono` is the sum of c/den times standard monomial
        k of mono's degree, indexed as in `standard_monomials`. These are
        the (nums, den) of mono's entry in the QUOT normal-form table,
        so den is 1 over GF(p) and for integral normal forms over QQ, and
        each monomial's normal form is computed once per tower. The rows
        of `quot_row`, from which the graded windows read their products,
        are built from these coordinates.
        """
        nums, den = self._tables[Level.QUOT].get(mono) or self._image(mono, Level.QUOT)
        degree = mono >> self.ring.shift
        index = self._std_index.get(degree)
        if index is None:
            index = {m: k for k, m in enumerate(self.standard_monomials(degree))}
            self._std_index[degree] = index
        coords = []
        for m, c in nums.items():
            k = index.get(m)
            if k is None:
                raise VerificationFailure(
                    "graded piece bookkeeping failed: unexpected monomial"
                )
            coords.append((k, c))
        return coords, den

    def quot_row(self, mono: int, degree: int) -> tuple[list, int]:
        """The QUOT normal forms of mono times each standard monomial of
        `degree`, as int coordinates over one denominator.

        Returns (row, den): row[k] is a list of (t, c) over ints, and the
        normal form of mono times standard monomial k of `degree` is the
        sum of c/den times standard monomial t of the product's degree.
        den is the lcm of the entries' `quot_coords` denominators, so it
        is 1 over GF(p) and for integral normal forms over QQ. The row is
        built once per (mono, degree) from `quot_coords`, which reads
        each normal form off the QUOT table, and kept in the tower; a
        graded window map reads one row per term of its matrix entries.
        """
        key = (mono, degree)
        row = self._quot_rows.get(key)
        if row is None:
            vectors = [self.quot_coords(mono + m) for m in self.standard_monomials(degree)]
            den = lcm(*[d for _, d in vectors])
            row = ([coords if d == den else [(t, c * (den // d)) for t, c in coords]
                    for coords, d in vectors], den)
            self._quot_rows[key] = row
        return row

    def __repr__(self) -> str:
        gens = ", ".join(format_canonical(g, self.order) for g in self.seq_gens)
        return f"RingTower(vars={','.join(self.ring.vars)}; seq=[{gens}]; w={format_canonical(self.w, self.order)})"


def build_tower(ring: PolyRing, seq_gens, w_coords, order: MonomialOrder | None = None,
                allow_unchecked: bool = False) -> RingTower:
    """Build and validate the ring tower.

    `seq_gens` is the regular sequence (length c >= 1), `w_coords` the
    nonzero coordinate vector of the distinguished element w in their
    span. The mid-ideal generators are seq_gens without the generator
    at the last nonzero coordinate. Raises unless the presentation
    validates; pass allow_unchecked=True to accept generators outside
    the square of the maximal ideal or a failed regularity check.
    """
    order = order or ring.default_order()
    gens = list(seq_gens)
    if not gens:
        raise ZeroVector("need at least one sequence generator")
    # Each coordinate as a constant polynomial, and as its scalar pair.
    consts = [ring.const(c) for c in w_coords]
    coords = tuple((k.nums.get(0, 0), k.den) for k in consts)
    if len(coords) != len(gens):
        raise DimensionMismatch(
            f"{len(coords)} coordinates for {len(gens)} generators"
        )
    if not any(num for num, _ in coords):
        raise ZeroVector("coordinate vector is zero")
    for g in gens:
        if g.ring != ring:
            raise FieldMismatch("sequence generator lives in a different ring")

    w = sum_of_products(ring, zip(consts, gens))
    last = max(i for i, (num, _) in enumerate(coords) if num)
    mid_gens = gens[:last] + gens[last + 1:]

    # w is gens[last] times a nonzero scalar plus a combination of
    # mid_gens, so (seq_gens) == (mid_gens + w), whose reduced basis is
    # the oracle's combined basis, or the mid basis when w == 0.
    # Validation and the tower read both bases off the oracle, one
    # Buchberger run per ideal, computed on first use, so inhomogeneous
    # input that fails validation is rejected without a Groebner basis.
    mid_basis = functools.cache(
        lambda: buchberger_basis(Ideal(tuple(mid_gens), order)) if mid_gens else GroebnerBasis((), order)
    )
    oracle = functools.cache(lambda: DivisionOracle(mid_basis(), w))  # w == 0: NotDivisible
    validation = _ci_report(ring, gens, lambda: mid_basis() if w.is_zero() else oracle().combined)
    if not allow_unchecked and not validation.ok:
        raise VerificationFailure(
            "presentation failed validation: " + "; ".join(validation.lines())
        )
    tower = RingTower(ring, order, tuple(gens), coords, tuple(mid_gens), w, validation, oracle())
    _check_tower_invariants(tower)
    return tower


def _check_tower_invariants(tower: RingTower):
    # w and every mid generator must vanish at level QUOT. The converse,
    # that the deep basis lies in (mid ideal) + (w), is certified by the
    # division oracle's constructor, cofactor by cofactor.
    if not tower.normal_form(tower.w, Level.QUOT).is_zero():
        raise VerificationFailure("w does not reduce to zero at the deep level")
    for g in tower.mid_gens:
        if not tower.normal_form(g, Level.QUOT).is_zero():
            raise VerificationFailure("mid generator missing from the deep ideal")


class RingMatrix:
    """A matrix over one tower level whose entries are normal forms over
    the tower's ring at that level.

    The constructor is the one way in for a caller's entries: it takes
    each entry's normal form, which raises VariableMismatch or
    FieldMismatch for a polynomial from another ring, so every matrix
    keeps the invariant and the operations on matrices trust it. An
    explicit `ncols` must agree with the rows given (DimensionMismatch
    otherwise); it is needed only when there are no rows.

    Dimensions may be zero: rank-zero objects (empty matrices) are legal
    and behave as expected under block assembly and products.
    """

    __slots__ = ("tower", "level", "nrows", "ncols", "entries")

    def __init__(self, tower: RingTower, level: Level, entries: list[list[Polynomial]],
                 ncols: int | None = None):
        level = Level(level)
        if ncols is None:
            ncols = len(entries[0]) if entries else 0
        normal_form = tower.normal_form
        rows = []
        for row in entries:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows in matrix literal")
            rows.append(tuple([normal_form(p, level) for p in row]))
        self.tower, self.level, self.nrows, self.ncols = tower, level, len(rows), ncols
        self.entries = tuple(rows)

    @classmethod
    def _of_rows(cls, tower: RingTower, level: Level, rows: tuple, ncols: int) -> "RingMatrix":
        """The matrix of `rows`, a tuple of tuples of ncols polynomials of
        the tower's ring, each already a normal form at `level`, taken as
        they are: the package's own builds, whose entries are normal forms
        by construction, go through it."""
        m = cls.__new__(cls)
        m.tower, m.level, m.nrows, m.ncols, m.entries = tower, level, len(rows), ncols, rows
        return m

    @classmethod
    def identity(cls, tower: RingTower, level: Level, n: int) -> "RingMatrix":
        zero = tower.ring.zero()
        one = tower.normal_form(tower.ring.one(), level)
        return cls._of_rows(tower, level, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, tower: RingTower, level: Level, nrows: int, ncols: int) -> "RingMatrix":
        return cls._of_rows(tower, level, ((tower.ring.zero(),) * ncols,) * nrows, ncols)

    @classmethod
    def block(cls, blocks: list[list["RingMatrix"]]) -> "RingMatrix":
        """Assemble a matrix from a 2D grid of blocks."""
        if not blocks or not blocks[0]:
            raise DimensionMismatch("empty block grid")
        tower = blocks[0][0].tower
        level = blocks[0][0].level
        width = len(blocks[0])
        for row in blocks:
            if len(row) != width:
                raise DimensionMismatch("block rows hold different numbers of blocks")
            for b in row:
                if b.tower is not tower:
                    raise TowerMismatch("blocks from different towers")
                if b.level != level:
                    raise LevelMismatch("blocks at different levels")
        for row in blocks:
            h = row[0].nrows
            if any(b.nrows != h for b in row):
                raise DimensionMismatch("block row heights differ")
        for j in range(width):
            wcol = blocks[0][j].ncols
            if any(row[j].ncols != wcol for row in blocks):
                raise DimensionMismatch("block column widths differ")
        entries = tuple(
            sum((b.entries[i] for b in row), ())
            for row in blocks for i in range(row[0].nrows)
        )
        return cls._of_rows(tower, level, entries, sum(b.ncols for b in blocks[0]))

    def _check(self, other: "RingMatrix", for_product: bool = False):
        if self.tower is not other.tower:
            raise TowerMismatch("matrices from different towers")
        if self.level != other.level:
            raise LevelMismatch(f"levels differ: {self.level.name} vs {other.level.name}")
        if for_product:
            if self.ncols != other.nrows:
                raise DimensionMismatch(
                    f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
                )
        elif (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(
                f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other: "RingMatrix", op) -> "RingMatrix":
        self._check(other)
        # Entries are stored in normal form, and no term of a sum or
        # difference of normal forms is divisible by a leading monomial
        # of the basis.
        entries = tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries))
        return RingMatrix._of_rows(self.tower, self.level, entries, self.ncols)

    def __neg__(self) -> "RingMatrix":
        entries = tuple(tuple(-p for p in row) for row in self.entries)
        return RingMatrix._of_rows(self.tower, self.level, entries, self.ncols)

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        return matrix_sum_of_products(((1, self, other),))

    def scale(self, c) -> "RingMatrix":
        """Multiply entrywise by a polynomial."""
        entries = [[p * c for p in row] for row in self.entries]
        return RingMatrix(self.tower, self.level, entries, self.ncols)

    def transpose(self) -> "RingMatrix":
        entries = tuple(zip(*self.entries)) if self.nrows else ((),) * self.ncols
        return RingMatrix._of_rows(self.tower, self.level, entries, self.nrows)

    def reduce_to(self, level: Level) -> "RingMatrix":
        """Entrywise reduction to a deeper level."""
        level = Level(level)
        if level < self.level:
            raise LevelMismatch(
                f"cannot lift from {self.level.name} to shallower {level.name}"
            )
        return RingMatrix(self.tower, level, self.entries, self.ncols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.tower is not other.tower or self.level != other.level:
            return False
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return self.entries == other.entries

    __hash__ = None

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def format_rows(self) -> list[str]:
        order = self.tower.order
        return [
            "[" + ", ".join(format_canonical(p, order) for p in row) + "]"
            for row in self.entries
        ]

    def __repr__(self) -> str:
        body = "; ".join(self.format_rows()) if self.nrows else "(empty)"
        return f"RingMatrix[{self.level.name} {self.nrows}x{self.ncols}]({body})"


def require_shape(name: str, m: RingMatrix, rows: int, cols: int):
    """DimensionMismatch unless the matrix `name` is rows x cols."""
    if (m.nrows, m.ncols) != (rows, cols):
        raise DimensionMismatch(f"{name} must be {rows}x{cols}, got {m.nrows}x{m.ncols}")


def matrix_sum_of_products(products, lead=()) -> RingMatrix:
    """sum of sign*a@b over the (sign, a, b) in `products`, plus sum of
    sign*m over the (sign, m) in `lead`, each sign 1 or -1.

    One sparse pass, with no intermediate matrix: the sum of products is
    one product of the operands set side by side, [s_1*a_1 | s_2*a_2 |
    ...] @ [b_1; b_2; ...]. Each row of the left side is viewed once as
    its nonzero entries (index, nums, signed den) and each column of the
    right side once as a dict index -> (nums, den). An entry intersects
    one row view with one column view and is one `sum_of_terms` call
    over those products and the leads' entries, a sign folded into each
    term's denominator, then one normal form at the operands' level; the
    leads are in normal form and normal form is linear, so this is the
    sum of the normalized products. No entry's ring is checked: every
    RingMatrix entry is a normal form over the tower's ring, which its
    constructor checked. There must be at least one product
    (ValueError); each pair must multiply, and the terms and the leads
    must share tower, level and result shape.
    """
    if not products:
        raise ValueError("a matrix combination needs at least one product")
    for _, a, b in products:
        a._check(b, for_product=True)
    _, first, last = products[0]
    tower, level, shape = first.tower, first.level, (first.nrows, last.ncols)
    others = [(a, (a.nrows, b.ncols)) for _, a, b in products[1:]]
    others += [(m, (m.nrows, m.ncols)) for _, m in lead]
    for m, m_shape in others:
        if m.tower is not tower:
            raise TowerMismatch("matrices from different towers")
        if m.level != level:
            raise LevelMismatch(f"levels differ: {level.name} vs {m.level.name}")
        if m_shape != shape:
            raise DimensionMismatch("shape mismatch: {}x{} vs {}x{}".format(*shape, *m_shape))
    ring = tower.ring
    rows = [[] for _ in range(shape[0])]
    cols = [{} for _ in range(shape[1])]
    offset = 0
    for sign, a, b in products:
        for view, line in zip(rows, a.entries):
            for k, p in enumerate(line, offset):
                if p.nums:
                    view.append((k, p.nums, sign * p.den))
        for k, line in enumerate(b.entries, offset):
            for col, p in zip(cols, line):
                if p.nums:
                    col[k] = (p.nums, p.den)
        offset += a.ncols
    leads = [(sign, m.entries) for sign, m in lead]
    one, zero, normal_form = {0: 1}, ring.zero(), tower.normal_form
    entries = []
    for i, view in enumerate(rows):
        line = []
        for j, col in enumerate(cols):
            terms = [(one, p.nums, sign * p.den) for sign, rows_m in leads if (p := rows_m[i][j]).nums]
            get = col.get
            for k, nums, d in view:
                e = get(k)
                if e is not None:
                    terms.append((nums, e[0], d * e[1]))
            line.append(normal_form(sum_of_terms(ring, terms), level) if terms else zero)
        entries.append(tuple(line))
    return RingMatrix._of_rows(tower, level, tuple(entries), shape[1])
