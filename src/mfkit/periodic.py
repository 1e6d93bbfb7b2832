"""Reduction to 2-periodic complexes and the two lifting algorithms.

Reducing a matrix factorization modulo w yields a doubly infinite
2-periodic complex of free modules over the deep quotient: the two
differentials are the reduced matrices, and their composites vanish
because w maps to zero. Such a complex is a matrix factorization of 0
at QUOT, so the reduction of an object, morphism or homotopy is the
`mfcat` class of the same name at QUOT, verified by the same
constructor. Reduction is functorial on morphisms and homotopies.

Two constructive algorithms cross the quotient in the other direction:

* `transport_nullhomotopy` upgrades a nullhomotopy of the reduced
  morphism (given by lifted diagonals whose defects are divisible by w)
  to a genuine nullhomotopy of the morphism itself, using exact
  division by the non-zerodivisor w and a single correction step.

* `lift_chain_map` turns a window of lifted components of a chain map
  between reduced complexes into a genuine morphism of matrix
  factorizations, again via exact division, and returns the reduced
  defect matrices as the zeroth part of a homotopy witness.

Each defect, correction and internal identity of the two algorithms is
one signed combination, a sum of +-m over leads plus a sum of +-a@b,
computed by `tower.matrix_sum_of_products` in one sparse pass with one
normal form per entry; a negated term or a subtracted lead is a sign,
so no negated or subtracted matrix is built. The one exception is the
witness identity's lead, f - f0 reduced to QUOT, which crosses levels.

Degree-window oracles verify acyclicity and nullhomotopy statements on
finite windows by exact linear algebra over the coefficient field for
graded data; a window verdict is evidence for the infinite statement,
not a proof. Multiplication by a matrix on graded pieces is summed, term
by term of the matrix entries, from the tower's rows of product normal
forms (`RingTower.quot_row`, built from its table of monomial normal
forms `RingTower.quot_coords`), which every window on that tower shares.
The images, and the rows of the graded systems, are canonical int rows,
with no zero entry and, over GF(p), every entry in [1, p), which
`linalg` takes without normalizing them again: a row that leads a new
column becomes a pivot row as it stands, uncopied. The acyclicity window
ranks each differential on a complement of a known part of its kernel: a
QUOT-level factorization has phi@psi == 0 and psi@phi == 0, checked by
its constructor, so the image U of psi landing in the source V of phi
lies in ker(phi). The echelon that ranks psi hands back its pivot
columns; the unit vectors of V outside them span a complement C, so V is
the direct sum of U and C, phi(V) = phi(C), and the rank of phi needs
only the images of C. Each rank is still exact, with no premise beyond
the verified identity. The nullhomotopy window states its homotopy
equations, one matrix equation per position, through one builder of
graded linear systems (`_GradedSystem`), solves them at once and
re-verifies each as one such combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from . import linalg
from .errors import (
    BudgetExceeded,
    EmptyWindow,
    LevelMismatch,
    NotDivisible,
    NotHomogeneous,
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
from .tower import Level, RingMatrix, RingTower, matrix_sum_of_products, require_shape

DEFAULT_BUDGET = 32


# `bench/workloads.py` builds reduced chain maps under this name.
PeriodicChainMap = MfMorphism


def twist_of(tower: RingTower) -> int:
    """The internal degree shift per half-period of a reduced complex;
    for homogeneous data it is the degree of w."""
    d = tower.w.homogeneous_degree()
    return d if d is not None else tower.w.degree()


def reduce_object(a: MatrixFactorization) -> MatrixFactorization:
    """The 2-periodic complex of a factorization: both matrices reduced
    to QUOT, a factorization of 0 there. Even positions carry the F-slot
    (phi out of them), odd positions the G-slot (psi out of them)."""
    return MatrixFactorization(*a.bars())


def reduce_morphism(theta: MfMorphism) -> MfMorphism:
    return MfMorphism(
        reduce_object(theta.source),
        reduce_object(theta.target),
        theta.f.reduce_to(Level.QUOT),
        theta.g.reduce_to(Level.QUOT),
    )


def reduce_homotopy(h: MfHomotopy) -> MfHomotopy:
    return MfHomotopy(
        reduce_morphism(h.theta),
        reduce_morphism(h.theta_prime),
        h.s.reduce_to(Level.QUOT),
        h.t.reduce_to(Level.QUOT),
    )


def _divide_matrix(tower: RingTower, m: RingMatrix, failure: str) -> RingMatrix:
    """Entrywise exact division by w at MID level; NotDivisible(failure)
    unless every entry vanishes over the deep quotient."""
    oracle = tower.oracle
    try:
        entries = tuple(tuple([oracle.divide(p) for p in row]) for row in m.entries)
    except NotDivisible:
        raise NotDivisible(failure) from None
    return RingMatrix._of_rows(tower, Level.MID, entries, m.ncols)


def _check_mid_shapes(*specs):
    """Each (name, matrix, rows, cols) must be a MID-level rows x cols
    matrix. That the operands share one tower is checked where they meet,
    in `matrix_sum_of_products`."""
    for name, m, rows, cols in specs:
        if m.level != Level.MID:
            raise LevelMismatch(f"{name} must be a MID-level matrix, got {m.level.name}")
        require_shape(name, m, rows, cols)


class HomotopyTransportInput:
    """Lifted diagonals (s1, t, s2) of a nullhomotopy of the reduction.

    The constructor divides both defects exactly by w, once, and keeps
        p_corr = (f - s2@phi1 - psi2@t)/w   and   q_corr = (g - t@psi1 - phi2@s1)/w
    at MID level. A defect is divisible exactly when it vanishes over the
    deep quotient; otherwise NotDivisible is raised, f-defect first.
    """

    __slots__ = ("theta", "s1", "t", "s2", "p_corr", "q_corr")

    def __init__(self, theta: MfMorphism, s1: RingMatrix, t: RingMatrix, s2: RingMatrix):
        src, tgt = theta.source, theta.target
        tower = theta.tower
        _check_mid_shapes(
            ("s1", s1, tgt.rank_f, src.rank_g),
            ("t", t, tgt.rank_g, src.rank_f),
            ("s2", s2, tgt.rank_f, src.rank_g),
            ("f", theta.f, tgt.rank_f, src.rank_f),
        )
        self.theta = theta
        self.s1 = s1
        self.t = t
        self.s2 = s2
        why = (" does not vanish over the quotient,"
               " the given diagonals do not reduce to a nullhomotopy")
        self.p_corr = _divide_matrix(
            tower, matrix_sum_of_products([(-1, s2, src.phi), (-1, tgt.psi, t)], [(1, theta.f)]),
            "f - s2@phi1 - psi2@t" + why,
        )
        self.q_corr = _divide_matrix(
            tower, matrix_sum_of_products([(-1, t, src.psi), (-1, tgt.phi, s1)], [(1, theta.g)]),
            "g - t@psi1 - phi2@s1" + why,
        )


def transport_nullhomotopy(inp: HomotopyTransportInput) -> MfHomotopy:
    """Transport a reduced nullhomotopy across the quotient.

    Starts from the input's exact quotients p_corr and q_corr, corrects t
    by the phi-composed quotient, and returns the homotopy (s2, t')
    verified against the zero morphism. The derived identity
        p@psi1 == s1 - s2 + psi2@q
    is asserted along the way; its failure would indicate a bug, not bad
    input.
    """
    theta = inp.theta
    src, tgt = theta.source, theta.target
    residual = matrix_sum_of_products(
        [(1, inp.p_corr, src.psi), (-1, tgt.psi, inp.q_corr)], [(1, inp.s2), (-1, inp.s1)])
    if not residual.is_zero():
        raise VerificationFailure("internal identity p@psi1 == s1 - s2 + psi2@q failed")
    t_prime = matrix_sum_of_products([(1, tgt.phi, inp.p_corr)], [(1, inp.t)])
    return verify_homotopy(theta, zero_morphism(src, tgt), inp.s2, t_prime)


class ChainLiftInput:
    """A lifted window (g1, f0, g0) of a chain map between reductions.

    The constructor divides the two commutation defects exactly by w,
    once, and keeps
        phi_gap = (phi2@f0 - g0@phi1)/w   and   psi_gap = (psi2@g1 - f0@psi1)/w
    at MID level. A defect is divisible exactly when it vanishes over the
    deep quotient; otherwise NotDivisible is raised, phi-square first.
    """

    __slots__ = ("source", "target", "g1", "f0", "g0", "phi_gap", "psi_gap")

    def __init__(self, source: MatrixFactorization, target: MatrixFactorization,
                 g1: RingMatrix, f0: RingMatrix, g0: RingMatrix):
        tower = source.tower
        _check_mid_shapes(
            ("g1", g1, target.rank_g, source.rank_g),
            ("f0", f0, target.rank_f, source.rank_f),
            ("g0", g0, target.rank_g, source.rank_g),
            ("phi1", source.phi, source.rank_g, source.rank_f),
            ("phi2", target.phi, target.rank_g, target.rank_f),
        )
        self.source = source
        self.target = target
        self.g1 = g1
        self.f0 = f0
        self.g0 = g0
        why = (" does not vanish over the quotient,"
               " the lifted window is not a chain-map section")
        self.phi_gap = _divide_matrix(
            tower, matrix_sum_of_products([(1, target.phi, f0), (-1, g0, source.phi)]),
            "phi2@f0 - g0@phi1" + why,
        )
        self.psi_gap = _divide_matrix(
            tower, matrix_sum_of_products([(1, target.psi, g1), (-1, f0, source.psi)]),
            "psi2@g1 - f0@psi1" + why,
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

    Starts from the input's exact quotients phi_gap and psi_gap and
    corrects:
        f = f0 - psi2@phi_gap + psi_gap@phi1
        g = g0 + phi2@psi_gap
    The result is verified as a morphism; the derived identity
    psi2@phi_gap@psi1 == f0@psi1 - psi2@g0 and the reduced witness
    identity are asserted. The witness identity reads psi2_bar and
    phi1_bar from the factorizations' `bars`, reduced once per object.
    """
    src, tgt = inp.source, inp.target
    phi_gap, psi_gap = inp.phi_gap, inp.psi_gap
    f_lead = matrix_sum_of_products([(-1, tgt.psi, phi_gap)], [(1, inp.f0)])
    if not matrix_sum_of_products([(1, f_lead, src.psi), (-1, tgt.psi, inp.g0)]).is_zero():
        raise VerificationFailure(
            "internal identity psi2@phi_gap@psi1 == f0@psi1 - psi2@g0 failed"
        )
    f = matrix_sum_of_products([(1, psi_gap, src.phi)], [(1, f_lead)])
    g = matrix_sum_of_products([(1, tgt.phi, psi_gap)], [(1, inp.g0)])
    theta = verify_morphism(src, tgt, f, g)
    phi_gap_bar = phi_gap.reduce_to(Level.QUOT)
    psi_gap_bar = psi_gap.reduce_to(Level.QUOT)
    phi1_bar, _ = src.bars()
    _, psi2_bar = tgt.bars()
    residual_bar = matrix_sum_of_products(
        [(1, psi2_bar, phi_gap_bar), (-1, psi_gap_bar, phi1_bar)],
        [(1, (f - inp.f0).reduce_to(Level.QUOT))],
    )
    if not residual_bar.is_zero():
        raise VerificationFailure(
            "witness identity f_bar - f0_bar == -psi2_bar@phi_gap_bar"
            " + psi_gap_bar@phi1_bar failed"
        )
    return theta, LiftWitness(phi_gap, psi_gap, phi_gap_bar, psi_gap_bar)


# ---------------------------------------------------------------------------
# Graded windows


def _require_graded(a: MatrixFactorization):
    """Windows act on reduced complexes: QUOT factorizations over a
    graded tower."""
    if a.level != Level.QUOT:
        raise LevelMismatch(f"graded windows need a QUOT-level complex, got {a.level.name}")
    if not a.tower.is_graded():
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


def _graded_map(tower: RingTower, m: RingMatrix, src_degree: int, entry_degree: int,
                skip=frozenset()):
    """Sparse image vectors of multiplication by m on graded pieces.

    The source is (piece of src_degree)^ncols, the target (piece of
    src_degree + entry_degree)^nrows, both over the coefficient field.
    Source basis element (j, k), index j*len(src) + k, is the standard
    monomial k in slot j; it maps to column j of m times it, in normal
    form at QUOT, a vector over target indices i*len(tgt) + t. Every
    nonzero entry of m is homogeneous of entry_degree, so each product
    lies in the target degree. The images are summed term by term: a
    term c*u of entry (i, j) adds c times `tower.quot_row(u, src_degree)`
    [k] into slot i of image (j, k). Distinct entries of a column fill
    distinct slots, so only the terms of one entry can meet on a key.

    Returns (images, den, source dimension, target dimension): images
    holds, in index order, one int dict per source element whose index
    is not in `skip`, the element's image being that dict over den, one
    den for the whole map, worked out before any image is summed. Each
    image is a canonical row for `linalg`: no zero entry and, over
    GF(p), every entry in [1, p). den is 1 unless an entry or a row has
    a denominator (never over GF(p), nor for integral data over QQ).
    The rank of the map is the rank of its int image rows.
    """
    field = tower.ring.field
    p = field.characteristic
    nsrc = len(tower.standard_monomials(src_degree))
    ntgt = len(tower.standard_monomials(src_degree + entry_degree))
    # Per column, per nonzero entry: (slot offset, entry den, [(c, row, row den)]).
    columns = [[(i * ntgt, e.den, [(c, *tower.quot_row(u, src_degree)) for u, c in e.nums.items()])
                for i, line in enumerate(m.entries) if (e := line[j]).nums]
               for j in range(m.ncols)]
    den = lcm(*[eden * rden for column in columns for _, eden, terms in column
                for _, _, rden in terms])
    # An entry's first term writes into keys of its own slot that no other
    # term has written, each value nonzero and, over GF(p), reduced: the
    # row's coordinates are, and a product of units mod p is a unit. Only
    # an entry's further terms add to a key, and may cancel or leave [1, p).
    several = any(len(e.nums) > 1 for line in m.entries for e in line)
    images: list[dict] = []
    for j, column in enumerate(columns):
        start = j * nsrc
        keep = [k for k in range(nsrc) if start + k not in skip] if skip else range(nsrc)
        block = [{} for _ in keep]
        for base, eden, terms in column:
            for n, (coeff, row, rden) in enumerate(terms):
                if den != 1:
                    coeff *= den // (eden * rden)
                if len(keep) < nsrc:
                    row = [row[k] for k in keep]
                if n:
                    for image, coords in zip(block, row):
                        for t, c in coords:
                            key = base + t
                            image[key] = image.get(key, 0) + coeff * c
                elif p and coeff != 1:
                    for image, coords in zip(block, row):
                        for t, c in coords:
                            image[base + t] = coeff * c % p
                else:
                    for image, coords in zip(block, row):
                        for t, c in coords:
                            image[base + t] = coeff * c
        images.extend(map(field.canonical_row, block) if several else block)
    return images, den, nsrc * m.ncols, ntgt * m.nrows


class _GradedSystem:
    """An exact linear system for unknown QUOT matrices with graded entries.

    `unknown` adds a matrix whose entries range over one graded piece;
    the coefficient of standard monomial k in entry (i, j) of an unknown
    is variable offset + (i*ncols + j)*len(piece) + k, with offsets in
    creation order. `equation` adds the equations c == sum of A@X +
    sum of X@B, one per entry of c and standard monomial of the
    equation's degree, read off the graded maps of A and of B transposed.
    `solve` sets free variables to zero, so the solution does not depend
    on the order of the equations, and re-verifies every equation, as
    one `matrix_sum_of_products` combination, before it returns. Each
    graded map is built once per system, keyed by operand, side, unknown
    degree and equation degree; the cache holds each operand, so no other
    matrix can take its id.
    """

    __slots__ = ("tower", "nvars", "_unknowns", "_rows", "_equations", "_maps")

    def __init__(self, tower: RingTower):
        self.tower = tower
        self.nvars = 0
        self._unknowns: list[tuple] = []     # (offset, nrows, ncols, degree)
        self._rows: list[tuple[dict, int]] = []  # (coefficients, right-hand side)
        self._equations: list[tuple] = []
        # (id(operand), left?, unknown degree, degree) -> (operand, map)
        self._maps: dict[tuple, tuple] = {}

    def unknown(self, nrows: int, ncols: int, degree: int) -> int:
        """Add an unknown nrows x ncols matrix with entries in the graded
        piece of `degree`; returns its handle."""
        self._unknowns.append((self.nvars, nrows, ncols, degree))
        self.nvars += nrows * ncols * len(self.tower.standard_monomials(degree))
        return len(self._unknowns) - 1

    def equation(self, c: RingMatrix, degree: int, left=(), right=()):
        """Add c == sum of A@X over (A, X) in `left` + sum of X@B over
        (X, B) in `right`, where X are unknown handles.

        Every entry of c and every product must be homogeneous of
        `degree`; NotHomogeneous otherwise. The rows of one call share
        one denominator, so every coefficient is an int. The rows are
        canonical, as a graded map's images are: no zero coefficient
        and, over GF(p), every coefficient in [1, p) and every
        right-hand side in [0, p).
        """
        tower = self.tower
        shift = tower.ring.shift
        ntgt = len(tower.standard_monomials(degree))
        rows, cols = c.nrows, c.ncols
        # A term is (graded map of M, unknown, left?). For A@X, unknown
        # (r, j, k) enters entry (i, j) through column r of A; for X@B,
        # unknown (i, r, k) enters entry (i, j) through column r of B^T.
        terms = []
        for m, x, is_left in [*((a, x, True) for a, x in left),
                              *((b, x, False) for x, b in right)]:
            xdeg = self._unknowns[x][3]
            key = (id(m), is_left, xdeg, degree)
            if key not in self._maps:
                if _uniform_entry_degree(m) not in (None, degree - xdeg):
                    raise NotHomogeneous("product left the graded piece of its equation")
                graded = _graded_map(tower, m if is_left else m.transpose(), xdeg, degree - xdeg)
                self._maps[key] = (m, graded)
            terms.append((self._maps[key][1], x, is_left))
        rhs = []
        for i, line in enumerate(c.entries):
            for j, e in enumerate(line):
                for mono, coeff in e.nums.items():
                    if mono >> shift != degree:
                        raise NotHomogeneous("equation entry outside its graded piece")
                    coords, vden = tower.quot_coords(mono)
                    rhs.extend(((i * cols + j) * ntgt + k, coeff * v, e.den * vden)
                               for k, v in coords)
        den = lcm(*[d for (_, d, _, _), _, _ in terms], *[d for _, _, d in rhs])
        eqs = [{} for _ in range(rows * cols * ntgt)]
        b = [0] * len(eqs)
        for row, coeff, d in rhs:
            b[row] += coeff * (den // d)
        for (images, mden, _, _), x, is_left in terms:
            offset, xrows, xcols, xdeg = self._unknowns[x]
            size = len(tower.standard_monomials(xdeg))
            # Variable (r, f, k) and equation (a, f, t), with f the
            # unknown's index that the product leaves alone.
            if is_left:
                free, var_r, var_f, row_a, row_f = xcols, xcols * size, size, cols * ntgt, ntgt
            else:
                free, var_r, var_f, row_a, row_f = xrows, size, xcols * size, ntgt, cols * ntgt
            scale = den // mden
            for src_k, image in enumerate(images):
                r, k = divmod(src_k, size)
                # Equation (a, 0, t) and coefficient of each image entry.
                targets = [(tgt_k // ntgt * row_a + tgt_k % ntgt, coeff * scale)
                           for tgt_k, coeff in image.items()]
                for f in range(free):
                    var = offset + r * var_r + f * var_f + k
                    shift = f * row_f
                    for row, coeff in targets:
                        eq = eqs[row + shift]
                        eq[var] = eq.get(var, 0) + coeff
        field = tower.ring.field
        if len({x for _, x, _ in terms}) < len(terms):
            # A term writes each (equation, variable) once, from a
            # canonical image entry; only two terms on one unknown can
            # add up on a coefficient.
            eqs = map(field.canonical_row, eqs)
        self._rows.extend(zip(eqs, map(field.reduce_int, b)))
        self._equations.append((c, left, right))

    def solve(self) -> list[RingMatrix] | None:
        """The unknowns, free variables set to zero, or None when the
        system is inconsistent. VerificationFailure if the solution
        fails an equation."""
        tower, n = self.tower, self.nvars
        rows = [{**eq, n: b} if b else eq for eq, b in self._rows]
        solution = linalg.solve_linear(rows, n, tower.ring.field)
        if solution is None:
            return None
        nums, den = solution
        xs = []
        for offset, nrows, ncols, degree in self._unknowns:
            monos = tower.standard_monomials(degree)
            size = len(monos)
            coeffs = [nums[offset + cell * size:offset + (cell + 1) * size]
                      for cell in range(nrows * ncols)]
            entries = tuple(tuple([tower.ring.from_ints(dict(zip(monos, c)), den)
                                   for c in coeffs[i * ncols:(i + 1) * ncols]]) for i in range(nrows))
            # Combinations of standard monomials are in QUOT normal form.
            xs.append(RingMatrix._of_rows(tower, Level.QUOT, entries, ncols))
        for c, left, right in self._equations:
            products = [(1, a, xs[x]) for a, x in left] + [(1, xs[x], b) for x, b in right]
            if not matrix_sum_of_products(products, [(-1, c)]).is_zero():
                raise VerificationFailure("graded system solution failed re-verification")
        return xs


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
    def table(rows: list[HomologyRow]) -> list[str]:
        """The aligned table of `rows`, header first."""
        header = f"{'degree':>6} {'position':>8} {'dim_ker':>7} {'dim_im':>6} {'homology':>8}"
        out = [header]
        for r in rows:
            out.append(
                f"{r.degree:>6} {r.position:>8} {r.dim_ker:>7} {r.dim_im:>6} {r.homology:>8}"
            )
        return out


def _entry_degrees(c: MatrixFactorization) -> tuple[int | None, int | None]:
    """The uniform entry degrees of phi and psi (None for a zero matrix).
    Raises NotHomogeneous unless, when both are known, they add up to
    the twist."""
    e_phi = _uniform_entry_degree(c.phi)
    e_psi = _uniform_entry_degree(c.psi)
    twist = twist_of(c.tower)
    if e_phi is not None and e_psi is not None and e_phi + e_psi != twist:
        raise NotHomogeneous(
            f"entry degrees {e_phi}+{e_psi} do not add up to the twist {twist}"
        )
    return e_phi, e_psi


def _check_budget(needed: int | None, lo: int, hi: int, unit: str, budget: int):
    """BudgetExceeded when a window lo..hi needs graded pieces up to
    degree `needed` past `budget` (None skips that check), or spans more
    than `budget` `unit`."""
    if needed is not None and needed > budget:
        raise BudgetExceeded(f"window needs graded pieces up to degree {needed}, budget is {budget}")
    if hi - lo > budget:
        raise BudgetExceeded(f"window {lo}..{hi} spans {hi - lo} {unit}, budget is {budget}")


def _window_rows(c: MatrixFactorization, d_min: int, d_max: int, budget: int) -> list[HomologyRow]:
    """The homology rows of the reduced complex `c` on degrees d_min..d_max.

    Position F in degree d has kernel ker(phi_d) and image
    im(psi_{d - e_psi}), with e the entry degrees and phi_d the graded
    map of phi on source degree d; position G swaps phi and psi. Each
    rank is taken once, in increasing source degree, and not on the
    whole source: `c` is a QUOT-level factorization, so its constructor
    has checked phi@psi == 0, and U = im(psi_{d - e_psi}) lies in
    ker(phi_d). The echelon of psi_{d - e_psi} hands back its pivot
    columns P. The unit vectors outside P span a complement C of U in
    the source of phi_d, so phi_d's image is phi_d(U) + phi_d(C) =
    phi_d(C), and rank phi_d is the rank of the images of the source
    elements outside P. The same holds with phi and psi swapped. Only
    the source degrees d_min - e..d_max are computed. Where no image is
    known, below d_min or when the other differential is zero, every
    source element enters. Each pivot set is dropped once the other
    differential has read it.
    """
    tower = c.tower
    field = tower.ring.field
    e_phi, e_psi = _entry_degrees(c)
    needed = d_max + max(e for e in (e_phi, e_psi, 0) if e is not None)
    _check_budget(needed, d_min, d_max, "degrees", budget)

    differentials = {"phi": (c.phi, e_phi, "psi"), "psi": (c.psi, e_psi, "phi")}
    # Each differential is needed on d_min..d_max as a kernel and on
    # d_min - e..d_max - e as an image. At one source degree, a
    # differential of entry degree 0 goes first: the other reads its image.
    jobs = sorted((s, e != 0, name) for name, (_, e, _) in differentials.items()
                  if e is not None for s in range(max(d_min - e, 0), d_max + 1))
    pending = {(name, s) for s, _, name in jobs}
    ranks: dict[tuple[str, int], int] = {}
    # (name, s) -> pivot columns of the other differential's image in the
    # source of name on degree s, held until name reads them there.
    known: dict[tuple[str, int], set] = {}
    for s, _, name in jobs:
        pending.remove((name, s))
        m, e, other = differentials[name]
        skip = known.pop((name, s), frozenset())
        columns = set() if (other, s + e) in pending else None
        images, _, src_dim, tgt_dim = _graded_map(tower, m, s, e, skip)
        ranks[name, s] = linalg.matrix_rank(images, field, columns) if src_dim and tgt_dim else 0
        if columns is not None:
            known[other, s + e] = columns

    out = []
    for d in range(d_min, d_max + 1):
        piece = len(tower.standard_monomials(d))
        # F-position: out by phi, in by psi.
        ker = piece * c.rank_f - ranks.get(("phi", d), 0)
        im = ranks.get(("psi", d - (e_psi or 0)), 0)
        out.append(HomologyRow(d, "F", ker, im))
        # G-position: out by psi, in by phi.
        ker = piece * c.rank_g - ranks.get(("psi", d), 0)
        im = ranks.get(("phi", d - (e_phi or 0)), 0)
        out.append(HomologyRow(d, "G", ker, im))
    return out


def graded_acyclicity_window(c: MatrixFactorization, d_min: int, d_max: int,
                             budget: int = DEFAULT_BUDGET) -> AcyclicityReport:
    """Homology dimensions of the reduced complex `c` (and its dual) in a
    window of internal degrees, computed by exact rank computations on
    graded pieces. All zeros on the window is evidence of total
    acyclicity. BudgetExceeded when the window needs a graded piece past
    degree `budget` or spans more than `budget` degrees."""
    _require_graded(c)
    if d_min > d_max:
        raise EmptyWindow(f"empty degree window {d_min}..{d_max}")
    rows = _window_rows(c, d_min, d_max, budget)
    dual_rows = _window_rows(dual_mf(c), d_min, d_max, budget)
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


def graded_nullhomotopy_window(delta: MfMorphism, p_min: int, p_max: int,
                               budget: int = DEFAULT_BUDGET) -> NullhomotopyWindow:
    """Search for diagonals nullhomotoping the reduced chain map `delta`
    on a position window.

    Solves the homotopy equations at positions p_min+1..p_max for
    unknown diagonal matrices at p_min..p_max (one per position, not
    assumed periodic). Unknown entries are homogeneous of the degree
    forced by the grading; all equations form one exact linear system
    over the coefficient field. BudgetExceeded when the window spans
    more than `budget` positions, zero `delta` included, or a nonzero
    `delta` needs a graded piece past degree `budget`.
    """
    src, tgt = delta.source, delta.target
    tower = src.tower
    _require_graded(src)
    if p_min >= p_max:
        raise EmptyWindow(
            f"position window {p_min}..{p_max} must contain at least two positions"
        )
    # A range: nothing is built per position before the budget checks.
    positions = range(p_min, p_max + 1)
    # Diagonals out of even positions map F1 -> G2, out of odd ones G1 -> F2.
    shapes = ((tgt.rank_g, src.rank_f), (tgt.rank_f, src.rank_g))
    if delta.is_zero():
        # Zero needs no graded piece, so only the span is checked.
        _check_budget(None, p_min, p_max, "positions", budget)
        diagonals = [RingMatrix.zeros(tower, Level.QUOT, *shapes[p % 2]) for p in positions]
        return NullhomotopyWindow(True, list(positions), diagonals, list(positions[1:]))

    e_phi1, e_psi1 = _entry_degrees(src)
    e_phi2, e_psi2 = _entry_degrees(tgt)
    d_f = _uniform_entry_degree(delta.f)
    d_g = _uniform_entry_degree(delta.g)
    if None in (e_phi1, e_psi1, e_phi2, e_psi2):
        raise NotHomogeneous("window solver needs nonzero graded differentials")

    # Degrees of the two diagonal shapes, from whichever component of
    # delta is nonzero. As e_phi1 + e_psi1 == e_phi2 + e_psi2, the two
    # components agree on s_deg exactly when they agree on t_deg.
    if d_f is not None and d_g is not None and d_f - e_psi2 != d_g - e_psi1:
        raise NotHomogeneous("chain map degrees are inconsistent with the twists")
    if d_f is not None:
        t_deg, s_deg = d_f - e_psi2, d_f - e_phi1
    else:
        t_deg, s_deg = d_g - e_psi1, d_g - e_phi2

    needed = max(d for d in (t_deg, s_deg, d_f, d_g, 0) if d is not None)
    _check_budget(needed, p_min, p_max, "positions", budget)

    system = _GradedSystem(tower)
    sigma = {p: system.unknown(*shapes[p % 2], (t_deg, s_deg)[p % 2]) for p in positions}
    # The equation at position p: delta_p == d2_{p+1}@sigma_p + sigma_{p-1}@d1_p.
    # Every product in it has the degree of d_f (even p) or of d_g (odd p),
    # as the entry degrees of source and target add up to the twist.
    for p in positions[1:]:
        if p % 2 == 0:
            system.equation(delta.f, t_deg + e_psi2, [(tgt.psi, sigma[p])], [(sigma[p - 1], src.phi)])
        else:
            system.equation(delta.g, s_deg + e_phi2, [(tgt.phi, sigma[p])], [(sigma[p - 1], src.psi)])
    diagonals = system.solve()
    if diagonals is None:
        return NullhomotopyWindow(False, list(positions))
    return NullhomotopyWindow(True, list(positions), diagonals, list(positions[1:]))
