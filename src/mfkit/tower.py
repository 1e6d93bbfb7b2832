"""Ring towers and matrix algebra over their quotients.

A tower packages three rings: the ambient polynomial ring (level BASE),
an intermediate quotient by part of a regular sequence (level MID, where
matrix factorizations live), and the full quotient by the whole sequence
(level QUOT, where the reduced 2-periodic complexes live). Given the
sequence generators and the coordinates of a distinguished element w in
their span, the constructor completes the coordinate vector to a basis,
materializes the two quotient ideals with Groebner bases, and exposes
normal forms so that ring equality at every level is decidable.
"""

from __future__ import annotations

import enum
import functools
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
    monomials_of_degree,
    normal_form,
)
from .linalg import matrix_rank
from .poly import MonomialOrder, Polynomial, PolyRing, format_canonical, mono_divides, total_degree


class Level(enum.IntEnum):
    """Tower levels, ordered from shallowest to deepest quotient."""

    BASE = 0
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
    in_square = tuple(
        (not g.is_zero()) and all(total_degree(m) >= 2 for m in g.terms) for g in gens
    )
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
    """The tower base -> mid -> quot with the distinguished element w.

    Fields:
      ring         ambient polynomial ring
      order        monomial order used for all bases
      seq_gens     the regular sequence generating the deep quotient ideal
      w_coords     coordinates of w in the span of the sequence images
      basis_change square invertible matrix over the field; first row is
                   w_coords, the remaining rows present the mid-ideal
                   generators as combinations of seq_gens
      mid_gens     those combinations (empty when the sequence has length 1)
      w            the distinguished element, a non-zerodivisor at level MID
      mid_basis    reduced Groebner basis of (mid_gens)
      quot_basis   reduced Groebner basis of (mid_gens + w), which is the
                   ideal (seq_gens); it is the division oracle's combined
                   basis
    """

    __slots__ = (
        "ring",
        "order",
        "seq_gens",
        "w_coords",
        "basis_change",
        "mid_gens",
        "w",
        "mid_basis",
        "quot_basis",
        "validation",
        "_division",
        "_std_monos",
    )

    def __init__(self, ring, order, seq_gens, w_coords, basis_change, mid_gens, w,
                 mid_basis, quot_basis, validation, division):
        self.ring = ring
        self.order = order
        self.seq_gens = seq_gens
        self.w_coords = w_coords
        self.basis_change = basis_change
        self.mid_gens = mid_gens
        self.w = w
        self.mid_basis = mid_basis
        self.quot_basis = quot_basis
        self.validation = validation
        self._division = division
        self._std_monos = {}

    def basis_for(self, level: Level) -> GroebnerBasis | None:
        if level == Level.BASE:
            return None
        if level == Level.MID:
            return self.mid_basis
        return self.quot_basis

    def normal_form(self, p: Polynomial, level: Level) -> Polynomial:
        basis = self.basis_for(level)
        if basis is None or not basis.polys:
            return p
        return normal_form(p, basis)

    def elt(self, p: Polynomial, level: Level) -> "RingElt":
        return RingElt(self, level, self.normal_form(p, level))

    def parse_elt(self, text: str, level: Level) -> "RingElt":
        return self.elt(self.ring.parse(text), level)

    def division_oracle(self) -> DivisionOracle:
        """The oracle for exact division by w at level MID."""
        return self._division

    def divide_by_w(self, p: Polynomial) -> Polynomial:
        """q in MID normal form with p = w*q at level MID; NotDivisible otherwise."""
        return self.division_oracle().divide(p)

    def is_graded(self) -> bool:
        """True when the deep quotient ideal is homogeneous."""
        return all(g.is_homogeneous() for g in self.seq_gens) and self.w.is_homogeneous()

    def standard_monomials(self, degree: int) -> list:
        """Monomial basis of the QUOT-level graded piece of this degree."""
        key = degree
        if key not in self._std_monos:
            lms = [b.leading_monomial(self.order) for b in self.quot_basis.polys]
            self._std_monos[key] = [
                m
                for m in monomials_of_degree(self.ring.nvars, degree)
                if not any(mono_divides(lm, m) for lm in lms)
            ]
        return self._std_monos[key]

    def __repr__(self) -> str:
        gens = ", ".join(format_canonical(g, self.order) for g in self.seq_gens)
        return f"RingTower(vars={','.join(self.ring.vars)}; seq=[{gens}]; w={format_canonical(self.w, self.order)})"


def _complete_to_basis(field, first_row: list) -> list[list]:
    """Extend first_row to an invertible square matrix over the field.

    Deterministic: append standard unit vectors in index order, keeping
    each one that increases the rank.
    """
    n = len(first_row)
    rows = [{j: c for j, c in enumerate(first_row) if c != field.zero}]
    for i in range(n):
        if len(rows) == n:
            break
        unit = {i: field.one}
        if matrix_rank(rows + [unit], field) > len(rows):
            rows.append(unit)
    if len(rows) < n:
        raise ZeroVector("coordinate vector could not be completed to a basis")
    return [[row.get(j, field.zero) for j in range(n)] for row in rows]


def build_tower(ring: PolyRing, seq_gens, w_coords, order: MonomialOrder | None = None,
                allow_unchecked: bool = False) -> RingTower:
    """Build and validate the ring tower.

    `seq_gens` is the regular sequence (length c >= 1), `w_coords` the
    nonzero coordinate vector of the distinguished element w in their
    span. Rows 2..c of the completed basis give the mid-ideal
    generators. Raises unless the presentation validates; pass
    allow_unchecked=True to accept generators outside the square of the
    maximal ideal or a failed regularity check.
    """
    order = order or ring.default_order()
    gens = list(seq_gens)
    if not gens:
        raise ZeroVector("need at least one sequence generator")
    field = ring.field
    coords = [field.from_int(c) if isinstance(c, int) else c for c in w_coords]
    if len(coords) != len(gens):
        raise DimensionMismatch(
            f"{len(coords)} coordinates for {len(gens)} generators"
        )
    if all(c == field.zero for c in coords):
        raise ZeroVector("coordinate vector is zero")
    for g in gens:
        if g.ring != ring:
            raise FieldMismatch("sequence generator lives in a different ring")

    basis_change = _complete_to_basis(field, coords)
    w = ring.zero()
    for c, g in zip(coords, gens):
        w = w + g.scale(c)
    mid_gens = []
    for row in basis_change[1:]:
        h = ring.zero()
        for c, g in zip(row, gens):
            h = h + g.scale(c)
        mid_gens.append(h)

    # The basis change is invertible, so (seq_gens) == (mid_gens + w):
    # validation and quot_basis both use the oracle's combined basis.
    # Computed on first use, so inhomogeneous input that fails
    # validation is rejected without a Groebner basis.
    bases = functools.cache(lambda: _tower_bases(mid_gens, w, order))
    validation = _ci_report(ring, gens, lambda: bases()[2])
    if not allow_unchecked and not validation.ok:
        raise VerificationFailure(
            "presentation failed validation: " + "; ".join(validation.lines())
        )
    mid_basis, oracle, quot_basis = bases()
    if oracle is None:
        oracle = DivisionOracle(mid_basis, w)  # w == 0: raises NotDivisible

    tower = RingTower(
        ring, order, tuple(gens), tuple(coords), tuple(tuple(r) for r in basis_change),
        tuple(mid_gens), w, mid_basis, quot_basis, validation, oracle,
    )
    _check_tower_invariants(tower)
    return tower


def _tower_bases(mid_gens, w, order):
    """(mid_basis, division oracle, quot_basis), one Buchberger run per ideal.

    A reduced Groebner basis is unique, so the oracle's combined basis
    of (mid_basis + w) is quot_basis. For w == 0 the deep ideal is
    (mid_gens), and the oracle is None.
    """
    mid_basis = buchberger_basis(Ideal(tuple(mid_gens), order)) if mid_gens else GroebnerBasis((), order)
    if w.is_zero():
        return mid_basis, None, mid_basis
    oracle = DivisionOracle(mid_basis, w)
    return mid_basis, oracle, oracle.combined


def _check_tower_invariants(tower: RingTower):
    # w and every mid generator must vanish at level QUOT. The converse,
    # that the deep basis lies in (mid ideal) + (w), is certified by the
    # division oracle's constructor, cofactor by cofactor.
    if not tower.normal_form(tower.w, Level.QUOT).is_zero():
        raise VerificationFailure("w does not reduce to zero at the deep level")
    for g in tower.mid_gens:
        if not tower.normal_form(g, Level.QUOT).is_zero():
            raise VerificationFailure("mid generator missing from the deep ideal")


@dataclass(frozen=True)
class RingElt:
    """An element of a tower level, stored in normal form."""

    tower: RingTower
    level: Level
    value: Polynomial

    def _check(self, other: "RingElt"):
        if self.tower is not other.tower:
            raise TowerMismatch("elements from different towers")
        if self.level != other.level:
            raise LevelMismatch(f"levels differ: {self.level.name} vs {other.level.name}")

    def __add__(self, other):
        self._check(other)
        return RingElt(self.tower, self.level, self.tower.normal_form(self.value + other.value, self.level))

    def __sub__(self, other):
        self._check(other)
        return RingElt(self.tower, self.level, self.tower.normal_form(self.value - other.value, self.level))

    def __mul__(self, other):
        self._check(other)
        return RingElt(self.tower, self.level, self.tower.normal_form(self.value * other.value, self.level))

    def __neg__(self):
        return RingElt(self.tower, self.level, -self.value)

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __repr__(self) -> str:
        return f"RingElt[{self.level.name}]({format_canonical(self.value, self.tower.order)})"


class RingMatrix:
    """A matrix over one tower level; entries kept in normal form.

    Dimensions may be zero: rank-zero objects (empty matrices) are legal
    and behave as expected under block assembly and products.
    """

    __slots__ = ("tower", "level", "nrows", "ncols", "entries")

    def __init__(self, tower: RingTower, level: Level, entries: list[list[Polynomial]],
                 nrows: int | None = None, ncols: int | None = None, normalize: bool = True):
        self.tower = tower
        self.level = Level(level)
        if nrows is None:
            nrows = len(entries)
        if ncols is None:
            ncols = len(entries[0]) if entries else 0
        self.nrows = nrows
        self.ncols = ncols
        for row in entries:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows in matrix literal")
        if normalize:
            entries = [
                [tower.normal_form(p, self.level) for p in row] for row in entries
            ]
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def from_strings(cls, tower: RingTower, level: Level, rows: list[list[str]],
                     ncols: int | None = None) -> "RingMatrix":
        entries = [[tower.ring.parse(s) for s in row] for row in rows]
        return cls(tower, level, entries, ncols=ncols)

    @classmethod
    def identity(cls, tower: RingTower, level: Level, n: int) -> "RingMatrix":
        one = tower.ring.one()
        zero = tower.ring.zero()
        return cls(tower, level, [[one if i == j else zero for j in range(n)] for i in range(n)],
                   nrows=n, ncols=n, normalize=False)

    @classmethod
    def zeros(cls, tower: RingTower, level: Level, nrows: int, ncols: int) -> "RingMatrix":
        zero = tower.ring.zero()
        return cls(tower, level, [[zero] * ncols for _ in range(nrows)],
                   nrows=nrows, ncols=ncols, normalize=False)

    @classmethod
    def block(cls, blocks: list[list["RingMatrix"]]) -> "RingMatrix":
        """Assemble a matrix from a 2D grid of blocks."""
        if not blocks or not blocks[0]:
            raise DimensionMismatch("empty block grid")
        tower = blocks[0][0].tower
        level = blocks[0][0].level
        for row in blocks:
            for b in row:
                if b.tower is not tower:
                    raise TowerMismatch("blocks from different towers")
                if b.level != level:
                    raise LevelMismatch("blocks at different levels")
        for row in blocks:
            h = row[0].nrows
            if any(b.nrows != h for b in row):
                raise DimensionMismatch("block row heights differ")
        for j in range(len(blocks[0])):
            wcol = blocks[0][j].ncols
            if any(row[j].ncols != wcol for row in blocks):
                raise DimensionMismatch("block column widths differ")
        entries: list[list[Polynomial]] = []
        for row in blocks:
            for i in range(row[0].nrows):
                line: list[Polynomial] = []
                for b in row:
                    line.extend(b.entries[i])
                entries.append(line)
        ncols = sum(b.ncols for b in blocks[0])
        return cls(tower, level, entries, nrows=len(entries), ncols=ncols, normalize=False)

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
        self._check(other)
        entries = [
            [self.tower.normal_form(a + b, self.level) for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ]
        return RingMatrix(self.tower, self.level, entries, self.nrows, self.ncols, normalize=False)

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        return self + (-other)

    def __neg__(self) -> "RingMatrix":
        entries = [[-p for p in row] for row in self.entries]
        return RingMatrix(self.tower, self.level, entries, self.nrows, self.ncols, normalize=False)

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        self._check(other, for_product=True)
        zero = self.tower.ring.zero()
        entries = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(self.tower.normal_form(acc, self.level))
            entries.append(row)
        return RingMatrix(self.tower, self.level, entries, self.nrows, other.ncols, normalize=False)

    def scale(self, c) -> "RingMatrix":
        """Multiply entrywise by a ring element (RingElt or Polynomial)."""
        if isinstance(c, RingElt):
            if c.tower is not self.tower:
                raise TowerMismatch("scalar from a different tower")
            if c.level != self.level:
                raise LevelMismatch("scalar at a different level")
            c = c.value
        entries = [
            [self.tower.normal_form(p * c, self.level) for p in row] for row in self.entries
        ]
        return RingMatrix(self.tower, self.level, entries, self.nrows, self.ncols, normalize=False)

    def transpose(self) -> "RingMatrix":
        entries = [
            [self.entries[i][j] for i in range(self.nrows)] for j in range(self.ncols)
        ]
        return RingMatrix(self.tower, self.level, entries, self.ncols, self.nrows, normalize=False)

    def reduce_to(self, level: Level) -> "RingMatrix":
        """Entrywise reduction to a deeper level."""
        level = Level(level)
        if level < self.level:
            raise LevelMismatch(
                f"cannot lift from {self.level.name} to shallower {level.name}"
            )
        entries = [[p for p in row] for row in self.entries]
        return RingMatrix(self.tower, level, entries, self.nrows, self.ncols)

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

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i][j]

    def format_rows(self) -> list[str]:
        order = self.tower.order
        return [
            "[" + ", ".join(format_canonical(p, order) for p in row) + "]"
            for row in self.entries
        ]

    def __repr__(self) -> str:
        body = "; ".join(self.format_rows()) if self.nrows else "(empty)"
        return f"RingMatrix[{self.level.name} {self.nrows}x{self.ncols}]({body})"


def det(m: RingMatrix) -> Polynomial:
    """Determinant at the matrix's level (normal form), by expansion
    along columns with memoized minors."""
    if m.nrows != m.ncols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = m.nrows
    tower = m.tower
    ring = tower.ring
    if n == 0:
        return ring.one()
    cache: dict[tuple[int, int], Polynomial] = {}

    def minor(row: int, cols_mask: int) -> Polynomial:
        if row == n:
            return ring.one()
        key = (row, cols_mask)
        if key in cache:
            return cache[key]
        acc = ring.zero()
        available = [j for j in range(n) if cols_mask & (1 << j)]
        for k, j in enumerate(available):
            a = m.entries[row][j]
            if a.is_zero():
                continue
            sub = minor(row + 1, cols_mask & ~(1 << j))
            term = a * sub
            acc = acc + (term if k % 2 == 0 else -term)
        acc = tower.normal_form(acc, m.level)
        cache[key] = acc
        return acc

    return minor(0, (1 << n) - 1)
