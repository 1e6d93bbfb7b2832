"""Reduction to 2-periodic complexes and the two lifting algorithms.

Reducing a matrix factorization modulo w yields a doubly infinite
2-periodic complex of free modules over the deep quotient: the two
differentials are the reduced matrices, and their composites vanish
because w maps to zero. Reduction is functorial on morphisms and
homotopies.

Two constructive algorithms cross the quotient in the other direction:

* `transport_nullhomotopy` upgrades a nullhomotopy of the reduced
  morphism (given by lifted diagonals whose defects are divisible by w)
  to a genuine nullhomotopy of the morphism itself, using exact
  division by the non-zerodivisor w and a single correction step.

* `lift_chain_map` turns a window of lifted components of a chain map
  between reduced complexes into a genuine morphism of matrix
  factorizations, again via exact division, and returns the reduced
  defect matrices as the zeroth part of a homotopy witness.

Degree-window oracles verify acyclicity and nullhomotopy statements on
finite windows by exact linear algebra over the coefficient field for
graded data; a window verdict is evidence for the infinite statement,
not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .errors import (
    BudgetExceeded,
    CommutationViolation,
    DimensionMismatch,
    EmptyWindow,
    HomotopyViolation,
    LevelMismatch,
    NotDivisible,
    NotHomogeneous,
    TowerMismatch,
    VerificationFailure,
)
from .mfcat import (
    MatrixFactorization,
    MfHomotopy,
    MfMorphism,
    dual_mf,
    verify_homotopy,
    verify_morphism,
    zero_morphism,
)
from .tower import Level, RingMatrix, RingTower

DEFAULT_BUDGET = 32


class PeriodicComplex:
    """A 2-periodic complex of free modules over the deep quotient.

    Positions of even parity carry the F-slot (differential phi_bar out
    of them), odd parity the G-slot (differential psi_bar). `twist` is
    the internal degree shift per half-period; for homogeneous data it
    is the degree of w.
    """

    __slots__ = ("tower", "phi_bar", "psi_bar", "twist")

    def __init__(self, phi_bar: RingMatrix, psi_bar: RingMatrix, twist: int):
        if phi_bar.tower is not psi_bar.tower:
            raise TowerMismatch("differentials from different towers")
        if phi_bar.level != Level.QUOT or psi_bar.level != Level.QUOT:
            raise LevelMismatch("periodic complex matrices must be QUOT level")
        if phi_bar.nrows != psi_bar.ncols or phi_bar.ncols != psi_bar.nrows:
            raise DimensionMismatch(
                f"phi_bar {phi_bar.nrows}x{phi_bar.ncols} and psi_bar "
                f"{psi_bar.nrows}x{psi_bar.ncols} do not alternate"
            )
        self.tower = phi_bar.tower
        self.phi_bar = phi_bar
        self.psi_bar = psi_bar
        self.twist = twist
        if not (psi_bar @ phi_bar).is_zero():
            raise VerificationFailure("psi_bar@phi_bar != 0 over the quotient")
        if not (phi_bar @ psi_bar).is_zero():
            raise VerificationFailure("phi_bar@psi_bar != 0 over the quotient")

    @property
    def rank_f(self) -> int:
        return self.phi_bar.ncols

    @property
    def rank_g(self) -> int:
        return self.phi_bar.nrows

    def transpose_dual(self) -> "PeriodicComplex":
        """The dualized complex: transposed differentials in swapped roles."""
        return PeriodicComplex(
            self.psi_bar.transpose(), self.phi_bar.transpose(), self.twist
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicComplex):
            return NotImplemented
        return (
            self.phi_bar == other.phi_bar
            and self.psi_bar == other.psi_bar
            and self.twist == other.twist
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"PeriodicComplex(phi_bar={self.phi_bar.format_rows()},"
            f" psi_bar={self.psi_bar.format_rows()}, twist={self.twist})"
        )


class PeriodicChainMap:
    """A chain map of 2-periodic complexes given by periodic data.

    f_bar acts at F-positions, g_bar at G-positions; `periodic` records
    that one matrix per parity describes the whole map.
    """

    __slots__ = ("source", "target", "f_bar", "g_bar", "periodic")

    def __init__(self, source: PeriodicComplex, target: PeriodicComplex,
                 f_bar: RingMatrix, g_bar: RingMatrix, periodic: bool = True):
        self.source = source
        self.target = target
        self.f_bar = f_bar
        self.g_bar = g_bar
        self.periodic = periodic
        if f_bar.nrows != target.rank_f or f_bar.ncols != source.rank_f:
            raise DimensionMismatch("f_bar shape does not match the complexes")
        if g_bar.nrows != target.rank_g or g_bar.ncols != source.rank_g:
            raise DimensionMismatch("g_bar shape does not match the complexes")
        if (g_bar @ source.phi_bar) != (target.phi_bar @ f_bar):
            raise CommutationViolation("g_bar@phi_bar1 != phi_bar2@f_bar")
        if (f_bar @ source.psi_bar) != (target.psi_bar @ g_bar):
            raise CommutationViolation("f_bar@psi_bar1 != psi_bar2@g_bar")

    def __sub__(self, other: "PeriodicChainMap") -> "PeriodicChainMap":
        if self.source != other.source or self.target != other.target:
            raise DimensionMismatch("chain map difference needs equal endpoints")
        return PeriodicChainMap(
            self.source, self.target, self.f_bar - other.f_bar, self.g_bar - other.g_bar
        )

    def is_zero(self) -> bool:
        return self.f_bar.is_zero() and self.g_bar.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicChainMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.f_bar == other.f_bar
            and self.g_bar == other.g_bar
        )

    __hash__ = None


@dataclass
class PeriodicHomotopy:
    """Reduced homotopy data (s_bar, t_bar) between reduced chain maps."""

    first: PeriodicChainMap
    second: PeriodicChainMap
    s_bar: RingMatrix
    t_bar: RingMatrix

    def __post_init__(self):
        src, tgt = self.first.source, self.first.target
        lhs_f = self.first.f_bar - self.second.f_bar
        rhs_f = self.s_bar @ src.phi_bar + tgt.psi_bar @ self.t_bar
        if lhs_f != rhs_f:
            raise HomotopyViolation("reduced f-identity fails over the quotient")
        lhs_g = self.first.g_bar - self.second.g_bar
        rhs_g = self.t_bar @ src.psi_bar + tgt.phi_bar @ self.s_bar
        if lhs_g != rhs_g:
            raise HomotopyViolation("reduced g-identity fails over the quotient")


def _twist_of(tower: RingTower) -> int:
    d = tower.w.homogeneous_degree()
    return d if d is not None else tower.w.degree()


def reduce_object(a: MatrixFactorization) -> PeriodicComplex:
    """The 2-periodic complex of a factorization: reduce both matrices."""
    return PeriodicComplex(
        a.phi.reduce_to(Level.QUOT), a.psi.reduce_to(Level.QUOT), _twist_of(a.tower)
    )


def reduce_morphism(theta: MfMorphism) -> PeriodicChainMap:
    return PeriodicChainMap(
        reduce_object(theta.source),
        reduce_object(theta.target),
        theta.f.reduce_to(Level.QUOT),
        theta.g.reduce_to(Level.QUOT),
    )


def reduce_homotopy(h: MfHomotopy) -> PeriodicHomotopy:
    return PeriodicHomotopy(
        reduce_morphism(h.theta),
        reduce_morphism(h.theta_prime),
        h.s.reduce_to(Level.QUOT),
        h.t.reduce_to(Level.QUOT),
    )


@dataclass
class DualReductionReport:
    """Comparison of reduce(dual) against the transposed reduction."""

    matches: bool
    reduced_dual: PeriodicComplex
    transposed_reduction: PeriodicComplex


def dual_reduction_check(a: MatrixFactorization) -> DualReductionReport:
    """Transpose commutes with reduction; this is the computational core
    of total acyclicity of the reduced complex."""
    reduced_dual = reduce_object(dual_mf(a))
    transposed = reduce_object(a).transpose_dual()
    return DualReductionReport(reduced_dual == transposed, reduced_dual, transposed)


def _divide_matrix(tower: RingTower, m: RingMatrix) -> RingMatrix:
    """Entrywise exact division by w at MID level."""
    oracle = tower.division_oracle()
    entries = [[oracle.divide(p) for p in row] for row in m.entries]
    return RingMatrix(tower, Level.MID, entries, m.nrows, m.ncols, normalize=False)


class HomotopyTransportInput:
    """Lifted diagonals (s1, t, s2) of a nullhomotopy of the reduction.

    The defining residue identities are checked at construction: both
        f - s2@phi1 - psi2@t      and      g - t@psi1 - phi2@s1
    must vanish over the deep quotient.
    """

    __slots__ = ("theta", "s1", "t", "s2")

    def __init__(self, theta: MfMorphism, s1: RingMatrix, t: RingMatrix, s2: RingMatrix):
        src, tgt = theta.source, theta.target
        for name, m, rows, cols in (
            ("s1", s1, tgt.rank_f, src.rank_g),
            ("t", t, tgt.rank_g, src.rank_f),
            ("s2", s2, tgt.rank_f, src.rank_g),
        ):
            if m.level != Level.MID:
                raise DimensionMismatch(f"{name} must be a MID-level matrix")
            if (m.nrows, m.ncols) != (rows, cols):
                raise DimensionMismatch(
                    f"{name} must be {rows}x{cols}, got {m.nrows}x{m.ncols}"
                )
        self.theta = theta
        self.s1 = s1
        self.t = t
        self.s2 = s2
        f_defect = theta.f - s2 @ src.phi - tgt.psi @ t
        if not f_defect.reduce_to(Level.QUOT).is_zero():
            raise NotDivisible(
                "f - s2@phi1 - psi2@t does not vanish over the quotient,"
                " the given diagonals do not reduce to a nullhomotopy"
            )
        g_defect = theta.g - t @ src.psi - tgt.phi @ s1
        if not g_defect.reduce_to(Level.QUOT).is_zero():
            raise NotDivisible(
                "g - t@psi1 - phi2@s1 does not vanish over the quotient,"
                " the given diagonals do not reduce to a nullhomotopy"
            )


def transport_nullhomotopy(inp: HomotopyTransportInput) -> MfHomotopy:
    """Transport a reduced nullhomotopy across the quotient.

    Divides both defect matrices exactly by w, corrects t by the
    phi-composed quotient, and returns the homotopy (s2, t') verified
    against the zero morphism. The derived identity
        p@psi1 == s1 - s2 + psi2@q
    is asserted along the way; its failure would indicate a bug, not bad
    input.
    """
    theta = inp.theta
    src, tgt = theta.source, theta.target
    tower = theta.tower
    p_corr = _divide_matrix(tower, theta.f - inp.s2 @ src.phi - tgt.psi @ inp.t)
    q_corr = _divide_matrix(tower, theta.g - inp.t @ src.psi - tgt.phi @ inp.s1)
    lhs = p_corr @ src.psi
    rhs = inp.s1 - inp.s2 + tgt.psi @ q_corr
    if lhs != rhs:
        raise VerificationFailure("internal identity p@psi1 == s1 - s2 + psi2@q failed")
    t_prime = inp.t + tgt.phi @ p_corr
    return verify_homotopy(theta, zero_morphism(src, tgt), inp.s2, t_prime)


class ChainLiftInput:
    """A lifted window (g1, f0, g0) of a chain map between reductions.

    The two residue commutation squares are checked at construction:
        phi2@f0 - g0@phi1   and   psi2@g1 - f0@psi1
    must vanish over the deep quotient.
    """

    __slots__ = ("source", "target", "g1", "f0", "g0")

    def __init__(self, source: MatrixFactorization, target: MatrixFactorization,
                 g1: RingMatrix, f0: RingMatrix, g0: RingMatrix):
        if source.tower is not target.tower:
            raise TowerMismatch("source and target from different towers")
        for name, m, rows, cols in (
            ("g1", g1, target.rank_g, source.rank_g),
            ("f0", f0, target.rank_f, source.rank_f),
            ("g0", g0, target.rank_g, source.rank_g),
        ):
            if m.level != Level.MID:
                raise DimensionMismatch(f"{name} must be a MID-level matrix")
            if (m.nrows, m.ncols) != (rows, cols):
                raise DimensionMismatch(
                    f"{name} must be {rows}x{cols}, got {m.nrows}x{m.ncols}"
                )
        self.source = source
        self.target = target
        self.g1 = g1
        self.f0 = f0
        self.g0 = g0
        if not (target.phi @ f0 - g0 @ source.phi).reduce_to(Level.QUOT).is_zero():
            raise NotDivisible(
                "phi2@f0 - g0@phi1 does not vanish over the quotient,"
                " the lifted window is not a chain-map section"
            )
        if not (target.psi @ g1 - f0 @ source.psi).reduce_to(Level.QUOT).is_zero():
            raise NotDivisible(
                "psi2@g1 - f0@psi1 does not vanish over the quotient,"
                " the lifted window is not a chain-map section"
            )


@dataclass
class LiftWitness:
    """Defect data of a chain-map lift.

    phi_gap = (phi2@f0 - g0@phi1)/w and psi_gap = (psi2@g1 - f0@psi1)/w
    at MID level; their reductions form the zeroth part of a homotopy
    between the reduced lift and the input chain map, witnessed by
        f_bar - f0_bar == -psi2_bar@phi_gap_bar + psi_gap_bar@phi1_bar.
    """

    phi_gap: RingMatrix
    psi_gap: RingMatrix
    phi_gap_bar: RingMatrix
    psi_gap_bar: RingMatrix


def lift_chain_map(inp: ChainLiftInput) -> tuple[MfMorphism, LiftWitness]:
    """Lift a chain map of reduced complexes to a genuine morphism.

    Divides the two commutation defects exactly by w and corrects:
        f = f0 - psi2@phi_gap + psi_gap@phi1
        g = g0 + phi2@psi_gap
    The result is verified as a morphism; the derived identity
    psi2@phi_gap@psi1 == f0@psi1 - psi2@g0 and the reduced witness
    identity are asserted.
    """
    src, tgt = inp.source, inp.target
    tower = src.tower
    phi_gap = _divide_matrix(tower, tgt.phi @ inp.f0 - inp.g0 @ src.phi)
    psi_gap = _divide_matrix(tower, tgt.psi @ inp.g1 - inp.f0 @ src.psi)
    lhs = tgt.psi @ phi_gap @ src.psi
    rhs = inp.f0 @ src.psi - tgt.psi @ inp.g0
    if lhs != rhs:
        raise VerificationFailure(
            "internal identity psi2@phi_gap@psi1 == f0@psi1 - psi2@g0 failed"
        )
    f = inp.f0 - tgt.psi @ phi_gap + psi_gap @ src.phi
    g = inp.g0 + tgt.phi @ psi_gap
    theta = verify_morphism(src, tgt, f, g)
    phi_gap_bar = phi_gap.reduce_to(Level.QUOT)
    psi_gap_bar = psi_gap.reduce_to(Level.QUOT)
    lhs_bar = (f - inp.f0).reduce_to(Level.QUOT)
    rhs_bar = -(tgt.psi.reduce_to(Level.QUOT) @ phi_gap_bar) + psi_gap_bar @ src.phi.reduce_to(Level.QUOT)
    if lhs_bar != rhs_bar:
        raise VerificationFailure(
            "witness identity f_bar - f0_bar == -psi2_bar@phi_gap_bar"
            " + psi_gap_bar@phi1_bar failed"
        )
    return theta, LiftWitness(phi_gap, psi_gap, phi_gap_bar, psi_gap_bar)


# ---------------------------------------------------------------------------
# Graded windows


def _require_graded(tower: RingTower):
    if not tower.is_graded():
        raise NotHomogeneous(
            "graded windows need homogeneous tower generators and element"
        )


def _uniform_entry_degree(m: RingMatrix) -> int | None:
    """Common total degree of all nonzero entries, or None for the zero
    matrix. Raises NotHomogeneous on mixed or inhomogeneous entries."""
    degs = set()
    for row in m.entries:
        for p in row:
            if p.is_zero():
                continue
            d = p.homogeneous_degree()
            if d is None:
                raise NotHomogeneous(f"matrix entry {p!r} is not homogeneous")
            degs.add(d)
    if not degs:
        return None
    if len(degs) > 1:
        raise NotHomogeneous(f"matrix entries have mixed degrees {sorted(degs)}")
    return degs.pop()


def _graded_map(tower: RingTower, m: RingMatrix, src_degree: int, entry_degree: int):
    """Sparse image vectors of multiplication by m on graded pieces.

    The source is (piece of src_degree)^ncols, the target (piece of
    src_degree + entry_degree)^nrows, both over the coefficient field.
    Source basis element (j, s), index j*len(src) + s, is the standard
    monomial s in slot j; it maps to column j of m times s, in normal
    form at QUOT, a vector over target indices i*len(tgt) + t. Returns
    (images, source dimension, target dimension) with images[k] the
    image of source element k. The rank of the map is the rank of its
    image vectors.
    """
    one = tower.ring.field.one
    src_monos = tower.standard_monomials(src_degree) if src_degree >= 0 else []
    tgt_degree = src_degree + entry_degree
    tgt_monos = tower.standard_monomials(tgt_degree) if tgt_degree >= 0 else []
    ntgt = len(tgt_monos)
    tgt_index = {mono: k for k, mono in enumerate(tgt_monos)}
    images = []
    for j in range(m.ncols):
        column = [(i, row[j]) for i, row in enumerate(m.entries) if not row[j].is_zero()]
        for sm in src_monos:
            image = {}
            for i, p in column:
                prod = tower.normal_form(p.mul_term(sm, one), Level.QUOT)
                for mono, coeff in prod.terms.items():
                    k = tgt_index.get(mono)
                    if k is None:
                        raise VerificationFailure(
                            "graded piece bookkeeping failed: unexpected monomial"
                        )
                    image[i * ntgt + k] = coeff
            images.append(image)
    return images, len(src_monos) * m.ncols, ntgt * m.nrows


@dataclass(frozen=True)
class HomologyRow:
    degree: int
    position: str  # "F" or "G"
    dim_ker: int
    dim_im: int

    @property
    def homology(self) -> int:
        return self.dim_ker - self.dim_im

    def csv(self) -> str:
        return f"{self.degree},{self.position},{self.dim_ker},{self.dim_im},{self.homology}"


@dataclass
class AcyclicityReport:
    """Homology dimensions on a degree window, complex plus its dual."""

    d_min: int
    d_max: int
    rows: list[HomologyRow]
    dual_rows: list[HomologyRow]

    @property
    def all_zero(self) -> bool:
        return all(r.homology == 0 for r in self.rows) and all(
            r.homology == 0 for r in self.dual_rows
        )

    @staticmethod
    def _table(rows: list[HomologyRow]) -> list[str]:
        header = f"{'degree':>6} {'position':>8} {'dim_ker':>7} {'dim_im':>6} {'homology':>8}"
        out = [header]
        for r in rows:
            out.append(
                f"{r.degree:>6} {r.position:>8} {r.dim_ker:>7} {r.dim_im:>6} {r.homology:>8}"
            )
        return out

    def table_lines(self) -> list[str]:
        return self._table(self.rows)

    def dual_table_lines(self) -> list[str]:
        return self._table(self.dual_rows)


def _window_rows(c: PeriodicComplex, d_min: int, d_max: int, budget: int) -> list[HomologyRow]:
    tower = c.tower
    field = tower.ring.field
    e_phi = _uniform_entry_degree(c.phi_bar)
    e_psi = _uniform_entry_degree(c.psi_bar)
    if e_phi is not None and e_psi is not None and e_phi + e_psi != c.twist:
        raise NotHomogeneous(
            f"entry degrees {e_phi}+{e_psi} do not add up to the twist {c.twist}"
        )
    max_needed = d_max + max(e for e in (e_phi, e_psi, 0) if e is not None)
    if max_needed > budget:
        raise BudgetExceeded(
            f"window needs graded pieces up to degree {max_needed},"
            f" budget is {budget}"
        )

    differentials = {"phi": (c.phi_bar, e_phi), "psi": (c.psi_bar, e_psi)}
    # Each differential's rank on a source degree enters the table twice,
    # once as a kernel and once as an image.
    ranks: dict[tuple[str, int], int] = {}

    def rank_of(name: str, src_degree: int) -> int:
        m, entry_degree = differentials[name]
        if entry_degree is None or src_degree < 0:
            return 0
        key = (name, src_degree)
        if key not in ranks:
            images, src_dim, tgt_dim = _graded_map(tower, m, src_degree, entry_degree)
            ranks[key] = linalg.matrix_rank(images, field) if src_dim and tgt_dim else 0
        return ranks[key]

    out = []
    for d in range(d_min, d_max + 1):
        piece = len(tower.standard_monomials(d)) if d >= 0 else 0
        # F-position: out by phi_bar, in by psi_bar.
        ker = piece * c.rank_f - rank_of("phi", d)
        im = rank_of("psi", d - (e_psi or 0))
        out.append(HomologyRow(d, "F", ker, im))
        # G-position: out by psi_bar, in by phi_bar.
        ker = piece * c.rank_g - rank_of("psi", d)
        im = rank_of("phi", d - (e_phi or 0))
        out.append(HomologyRow(d, "G", ker, im))
    return out


def graded_acyclicity_window(c: PeriodicComplex, d_min: int, d_max: int,
                             budget: int = DEFAULT_BUDGET) -> AcyclicityReport:
    """Homology dimensions of the complex (and its dual) in a window of
    internal degrees, computed by exact rank computations on graded
    pieces. All zeros on the window is evidence of total acyclicity."""
    _require_graded(c.tower)
    if d_min > d_max:
        raise EmptyWindow(f"empty degree window {d_min}..{d_max}")
    rows = _window_rows(c, d_min, d_max, budget)
    dual_rows = _window_rows(c.transpose_dual(), d_min, d_max, budget)
    return AcyclicityReport(d_min, d_max, rows, dual_rows)


@dataclass
class NullhomotopyWindow:
    """Outcome of the finite-window nullhomotopy search.

    `diagonals[k]` is the diagonal map out of position positions[k];
    even positions carry maps F1 -> G2, odd positions maps G1 -> F2.
    A solvable window is evidence, not a proof, for the infinite
    complexes.
    """

    solvable: bool
    positions: list[int] = field(default_factory=list)
    diagonals: list[RingMatrix] | None = None
    verified_positions: list[int] = field(default_factory=list)


def graded_nullhomotopy_window(delta: PeriodicChainMap, p_min: int, p_max: int,
                               budget: int = DEFAULT_BUDGET) -> NullhomotopyWindow:
    """Search for diagonals nullhomotoping `delta` on a position window.

    Solves the homotopy equations at positions p_min+1..p_max for
    unknown diagonal matrices at p_min..p_max (one per position, not
    assumed periodic). Unknown entries are homogeneous of the degree
    forced by the grading; the equations decompose into exact linear
    systems over the coefficient field, solved degreewise.
    """
    src, tgt = delta.source, delta.target
    tower = src.tower
    _require_graded(tower)
    if p_min >= p_max:
        raise EmptyWindow(
            f"position window {p_min}..{p_max} must contain at least two positions"
        )
    field_ops = tower.ring.field

    if delta.is_zero():
        positions = list(range(p_min, p_max + 1))
        diagonals = [
            _sigma_zero(tower, src, tgt, p) for p in positions
        ]
        return NullhomotopyWindow(True, positions, diagonals, positions[1:])

    e_phi1 = _uniform_entry_degree(src.phi_bar)
    e_psi1 = _uniform_entry_degree(src.psi_bar)
    e_phi2 = _uniform_entry_degree(tgt.phi_bar)
    e_psi2 = _uniform_entry_degree(tgt.psi_bar)
    d_f = _uniform_entry_degree(delta.f_bar)
    d_g = _uniform_entry_degree(delta.g_bar)
    if None in (e_phi1, e_psi1, e_phi2, e_psi2):
        raise NotHomogeneous("window solver needs nonzero graded differentials")

    # Degrees of the two diagonal shapes, from whichever component of
    # delta is nonzero; cross-check when both are.
    t_deg_candidates = set()
    s_deg_candidates = set()
    if d_f is not None:
        t_deg_candidates.add(d_f - e_psi2)
        s_deg_candidates.add(d_f - e_phi1)
    if d_g is not None:
        t_deg_candidates.add(d_g - e_psi1)
        s_deg_candidates.add(d_g - e_phi2)
    if len(t_deg_candidates) > 1 or len(s_deg_candidates) > 1:
        raise NotHomogeneous("chain map degrees are inconsistent with the twists")
    t_deg = t_deg_candidates.pop()
    s_deg = s_deg_candidates.pop()

    needed = max(d for d in (t_deg, s_deg, d_f, d_g, 0) if d is not None)
    if needed > budget:
        raise BudgetExceeded(
            f"window needs graded pieces up to degree {needed}, budget is {budget}"
        )

    positions = list(range(p_min, p_max + 1))
    # Unknowns: the coefficient of standard monomial k in entry (i, j) of
    # the diagonal out of position p is variable
    # offset + (i*shape[1] + j)*len(monos) + k.
    layout = {}
    nvars = 0
    for p in positions:
        shape, deg = _sigma_shape(src, tgt, p, t_deg, s_deg)
        monos = tower.standard_monomials(deg) if deg >= 0 else []
        layout[p] = (nvars, shape, deg, monos)
        nvars += shape[0] * shape[1] * len(monos)

    # Augmented sparse rows; column nvars holds the right-hand side.
    rows: list[dict] = []

    def add_equations(p: int):
        # Equation at position p: delta_p = d2_{p+1} @ sigma_p + sigma_{p-1} @ d1_p
        if p % 2 == 0:
            lhs = delta.f_bar
            lhs_deg = d_f if d_f is not None else (t_deg + e_psi2)
            left_mat, e_left = tgt.psi_bar, e_psi2     # multiplies sigma_p
            right_mat, e_right = src.phi_bar, e_phi1   # multiplied by sigma_{p-1}
        else:
            lhs = delta.g_bar
            lhs_deg = d_g if d_g is not None else (s_deg + e_phi2)
            left_mat, e_left = tgt.phi_bar, e_phi2
            right_mat, e_right = src.psi_bar, e_psi1
        tgt_monos = tower.standard_monomials(lhs_deg) if lhs_deg >= 0 else []
        tgt_idx = {m: k for k, m in enumerate(tgt_monos)}
        ntgt = len(tgt_monos)
        ncols = lhs.ncols
        eqs = [{} for _ in range(lhs.nrows * ncols * ntgt)]
        for i in range(lhs.nrows):
            for j in range(ncols):
                for mono, coeff in lhs.entries[i][j].terms.items():
                    k = tgt_idx.get(mono)
                    if k is None:
                        raise NotHomogeneous("chain map entry outside its graded piece")
                    eqs[(i * ncols + j) * ntgt + k][nvars] = coeff

        def images(m: RingMatrix, src_degree: int, entry_degree: int):
            found, _, _ = _graded_map(tower, m, src_degree, entry_degree)
            if src_degree + entry_degree != lhs_deg and any(found):
                raise NotHomogeneous("product left the graded window")
            return found

        # left_mat @ sigma_p: unknown (r, j, k) of sigma_p enters entry (i, j)
        # through column r of left_mat.
        offset, (_, shape_cols), deg, monos = layout[p]
        for src_k, image in enumerate(images(left_mat, deg, e_left)):
            r, k = divmod(src_k, len(monos))
            for j in range(ncols):
                var = offset + (r * shape_cols + j) * len(monos) + k
                for tgt_k, coeff in image.items():
                    i, t = divmod(tgt_k, ntgt)
                    eqs[(i * ncols + j) * ntgt + t][var] = coeff
        # sigma_{p-1} @ right_mat: unknown (i, r, k) of sigma_{p-1} enters
        # entry (i, j) through row r of right_mat.
        offset, (_, shape_cols), deg, monos = layout[p - 1]
        for src_k, image in enumerate(images(right_mat.transpose(), deg, e_right)):
            r, k = divmod(src_k, len(monos))
            for i in range(lhs.nrows):
                var = offset + (i * shape_cols + r) * len(monos) + k
                for tgt_k, coeff in image.items():
                    j, t = divmod(tgt_k, ntgt)
                    eqs[(i * ncols + j) * ntgt + t][var] = coeff
        rows.extend(eqs)

    for p in range(p_min + 1, p_max + 1):
        add_equations(p)

    if not rows:
        return NullhomotopyWindow(False)
    solution = linalg.solve_linear(rows, nvars, field_ops)
    if solution is None:
        return NullhomotopyWindow(False, positions)

    diagonals = []
    for p in positions:
        offset, shape, _, monos = layout[p]
        entries = []
        for i in range(shape[0]):
            row_entries = []
            for j in range(shape[1]):
                acc = tower.ring.zero()
                base = offset + (i * shape[1] + j) * len(monos)
                for k, mono in enumerate(monos):
                    c = solution[base + k]
                    if c != field_ops.zero:
                        acc = acc + tower.ring.monomial(mono, c)
                row_entries.append(acc)
            entries.append(row_entries)
        diagonals.append(RingMatrix(tower, Level.QUOT, entries, shape[0], shape[1]))

    verified = []
    for idx, p in enumerate(positions[1:], start=1):
        sigma_p = diagonals[idx]
        sigma_q = diagonals[idx - 1]
        if p % 2 == 0:
            ok = delta.f_bar == tgt.psi_bar @ sigma_p + sigma_q @ src.phi_bar
        else:
            ok = delta.g_bar == tgt.phi_bar @ sigma_p + sigma_q @ src.psi_bar
        if not ok:
            raise VerificationFailure("window solution failed re-verification")
        verified.append(p)
    return NullhomotopyWindow(True, positions, diagonals, verified)


def _sigma_shape(src: PeriodicComplex, tgt: PeriodicComplex, p: int,
                 t_deg: int, s_deg: int):
    """Shape and entry degree of the diagonal out of position p."""
    if p % 2 == 0:
        return (tgt.rank_g, src.rank_f), t_deg
    return (tgt.rank_f, src.rank_g), s_deg


def _sigma_zero(tower: RingTower, src: PeriodicComplex, tgt: PeriodicComplex, p: int) -> RingMatrix:
    shape, _ = _sigma_shape(src, tgt, p, 0, 0)
    return RingMatrix.zeros(tower, Level.QUOT, shape[0], shape[1])
