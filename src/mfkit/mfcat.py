"""The category of matrix factorizations of w, at level MID or QUOT.

Objects are pairs of matrices (phi, psi) with psi@phi and phi@psi both
equal to w times the identity. Morphisms are pairs (f, g) making both
squares commute; homotopies are diagonal pairs (s, t). The module
provides suspension, direct sums, mapping cones with their natural
inclusion and projection, duals, and cokernel presentations over the
deep quotient.

At MID the objects are the factorizations of w over R. At QUOT, where w
is 0, the same classes are the 2-periodic complexes over R/(w) with their
chain maps and homotopies: `periodic.reduce_object` sends a MID
factorization to a factorization of 0 at QUOT.

Every constructor verifies the defining identities entrywise in normal
form and reports the first failing entry. The morphism squares and the
homotopy identities are each one `tower.matrix_sum_of_products`
combination tested for zero; the factorization axioms compare psi@phi
and phi@psi with w times the identity and report both values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AxiomViolation,
    CommutationViolation,
    DimensionMismatch,
    EndpointMismatch,
    HomotopyViolation,
    LevelMismatch,
    VerificationFailure,
)
from .poly import Polynomial, format_canonical
from .tower import Level, RingMatrix, RingTower, matrix_sum_of_products, require_shape


def _w_identity(tower: RingTower, level: Level, n: int) -> RingMatrix:
    """w times the n x n identity at `level`, from one normal form of w
    (which is 0 at QUOT)."""
    w = tower.normal_form(tower.w, level)
    zero = tower.ring.zero()
    return RingMatrix(tower, level, [[w if i == j else zero for j in range(n)] for i in range(n)],
                      nrows=n, ncols=n, normalize=False)


def _first_diff(found: RingMatrix, expected: RingMatrix):
    """Position and values of the first entry where the matrices differ."""
    for i in range(found.nrows):
        for j in range(found.ncols):
            if found.entries[i][j] != expected.entries[i][j]:
                return i, j, expected.entries[i][j], found.entries[i][j]
    return None


def _require_zero(m: RingMatrix, error, identity: str, location: str):
    """Raise `error` at the first nonzero entry of m, a combination
    a - b; entries are canonical and normal form is linear, so that is
    the first entry where a and b differ."""
    for i, row in enumerate(m.entries):
        for j, p in enumerate(row):
            if not p.is_zero():
                raise error(f"{identity} at entry ({i},{j})", location=f"{location}@({i},{j})")


class MatrixFactorization:
    """A verified matrix factorization of the tower element w.

    phi maps the rank_f free module into the rank_g one (a rank_g x
    rank_f matrix); psi maps back. Both are at one level, MID or QUOT,
    over one tower, which the product psi@phi checks. Construction
    checks both axioms and the forced rank equality.
    """

    __slots__ = ("tower", "phi", "psi", "_bars", "_dual")

    def __init__(self, phi: RingMatrix, psi: RingMatrix):
        if phi.nrows != psi.ncols or phi.ncols != psi.nrows:
            raise DimensionMismatch(
                f"phi is {phi.nrows}x{phi.ncols} but psi is {psi.nrows}x{psi.ncols}"
            )
        self.tower = phi.tower
        self.phi = phi
        self.psi = psi
        self._bars = None
        self._dual = None
        self._verify()

    @property
    def rank_f(self) -> int:
        return self.phi.ncols

    @property
    def rank_g(self) -> int:
        return self.phi.nrows

    @property
    def level(self) -> Level:
        return self.phi.level

    def bars(self) -> tuple[RingMatrix, RingMatrix]:
        """(phi, psi) reduced to QUOT, computed on the first call and kept."""
        if self._bars is None:
            self._bars = (self.phi.reduce_to(Level.QUOT), self.psi.reduce_to(Level.QUOT))
        return self._bars

    def _verify(self):
        tower = self.tower
        for name, left, right in (("psi@phi", self.psi, self.phi), ("phi@psi", self.phi, self.psi)):
            diff = _first_diff(left @ right, _w_identity(tower, self.level, left.nrows))
            if diff is not None:
                i, j, exp, found = diff
                raise AxiomViolation(
                    name, i, j,
                    format_canonical(exp, tower.order), format_canonical(found, tower.order),
                )
        if self.rank_f != self.rank_g:
            raise AxiomViolation(
                "rank", 0, 0, f"rank_f == rank_g", f"{self.rank_f} != {self.rank_g}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixFactorization):
            return NotImplemented
        return self.phi == other.phi and self.psi == other.psi

    __hash__ = None

    def __repr__(self) -> str:
        return f"MF(rank {self.rank_f}; phi={self.phi.format_rows()}; psi={self.psi.format_rows()})"


def verify_mf(phi: RingMatrix, psi: RingMatrix) -> MatrixFactorization:
    """Validate a candidate pair; raises AxiomViolation with the first
    offending entry, or returns the verified object."""
    return MatrixFactorization(phi, psi)


class MfMorphism:
    """A verified morphism (f, g) between matrix factorizations."""

    __slots__ = ("source", "target", "f", "g")

    def __init__(self, source: MatrixFactorization, target: MatrixFactorization,
                 f: RingMatrix, g: RingMatrix):
        require_shape("f", f, target.rank_f, source.rank_f)
        require_shape("g", g, target.rank_g, source.rank_g)
        self.source = source
        self.target = target
        self.f = f
        self.g = g
        self._verify()

    def _verify(self):
        src, tgt = self.source, self.target
        _require_zero(matrix_sum_of_products([(self.g, src.phi), (-tgt.phi, self.f)]),
                      CommutationViolation, "g@phi1 != phi2@f", "g@phi1")
        _require_zero(matrix_sum_of_products([(self.f, src.psi), (-tgt.psi, self.g)]),
                      CommutationViolation, "f@psi1 != psi2@g", "f@psi1")

    @property
    def tower(self) -> RingTower:
        return self.source.tower

    def __eq__(self, other) -> bool:
        if not isinstance(other, MfMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.f == other.f
            and self.g == other.g
        )

    __hash__ = None

    def __add__(self, other: "MfMorphism") -> "MfMorphism":
        if self.source != other.source or self.target != other.target:
            raise EndpointMismatch("morphism sum needs equal endpoints")
        return MfMorphism(self.source, self.target, self.f + other.f, self.g + other.g)

    def __sub__(self, other: "MfMorphism") -> "MfMorphism":
        if self.source != other.source or self.target != other.target:
            raise EndpointMismatch("morphism difference needs equal endpoints")
        return MfMorphism(self.source, self.target, self.f - other.f, self.g - other.g)

    def is_zero(self) -> bool:
        return self.f.is_zero() and self.g.is_zero()

    def __repr__(self) -> str:
        return f"MfMorphism(f={self.f.format_rows()}, g={self.g.format_rows()})"


def verify_morphism(source, target, f, g) -> MfMorphism:
    return MfMorphism(source, target, f, g)


def identity_morphism(a: MatrixFactorization) -> MfMorphism:
    return MfMorphism(
        a, a,
        RingMatrix.identity(a.tower, a.level, a.rank_f),
        RingMatrix.identity(a.tower, a.level, a.rank_g),
    )


def zero_morphism(source: MatrixFactorization, target: MatrixFactorization) -> MfMorphism:
    return MfMorphism(
        source, target,
        RingMatrix.zeros(source.tower, source.level, target.rank_f, source.rank_f),
        RingMatrix.zeros(source.tower, source.level, target.rank_g, source.rank_g),
    )


def compose_morphisms(second: MfMorphism, first: MfMorphism) -> MfMorphism:
    """second after first."""
    if first.target != second.source:
        raise EndpointMismatch("composition endpoints do not match")
    return MfMorphism(first.source, second.target, second.f @ first.f, second.g @ first.g)


class MfHomotopy:
    """A verified homotopy (s, t) between parallel morphisms.

    The defining identities are
        f - f' == s@phi1 + psi2@t
        g - g' == t@psi1 + phi2@s
    """

    __slots__ = ("theta", "theta_prime", "s", "t")

    def __init__(self, theta: MfMorphism, theta_prime: MfMorphism,
                 s: RingMatrix, t: RingMatrix):
        if theta.source != theta_prime.source or theta.target != theta_prime.target:
            raise EndpointMismatch("homotopy needs parallel morphisms")
        src, tgt = theta.source, theta.target
        require_shape("s", s, tgt.rank_f, src.rank_g)
        require_shape("t", t, tgt.rank_g, src.rank_f)
        self.theta = theta
        self.theta_prime = theta_prime
        self.s = s
        self.t = t
        self._verify()

    def _verify(self):
        src, tgt = self.theta.source, self.theta.target
        s, t = -self.s, -self.t
        _require_zero(matrix_sum_of_products([(s, src.phi), (tgt.psi, t)],
                                             self.theta.f - self.theta_prime.f),
                      HomotopyViolation, "f - f' != s@phi1 + psi2@t", "f-identity")
        _require_zero(matrix_sum_of_products([(t, src.psi), (tgt.phi, s)],
                                             self.theta.g - self.theta_prime.g),
                      HomotopyViolation, "g - g' != t@psi1 + phi2@s", "g-identity")

    def __repr__(self) -> str:
        return f"MfHomotopy(s={self.s.format_rows()}, t={self.t.format_rows()})"


def verify_homotopy(theta, theta_prime, s, t) -> MfHomotopy:
    return MfHomotopy(theta, theta_prime, s, t)


def suspend(a: MatrixFactorization) -> MatrixFactorization:
    """The suspension: swap the modules and negate both maps."""
    return MatrixFactorization(-a.psi, -a.phi)


def direct_sum(a: MatrixFactorization, b: MatrixFactorization) -> MatrixFactorization:
    tower, level = a.tower, a.level
    za = RingMatrix.zeros
    phi = RingMatrix.block(
        [[a.phi, za(tower, level, a.rank_g, b.rank_f)],
         [za(tower, level, b.rank_g, a.rank_f), b.phi]]
    )
    psi = RingMatrix.block(
        [[a.psi, za(tower, level, a.rank_f, b.rank_g)],
         [za(tower, level, b.rank_f, a.rank_g), b.psi]]
    )
    return MatrixFactorization(phi, psi)


def mapping_cone(theta: MfMorphism):
    """The cone of a morphism with its natural maps.

    Returns (cone, include, project): include embeds the target, project
    maps onto the suspended source, and project@include == 0.
    """
    src, tgt = theta.source, theta.target
    tower, level = theta.tower, src.level
    z = RingMatrix.zeros
    cone_phi = RingMatrix.block(
        [[-src.psi, z(tower, level, src.rank_f, tgt.rank_f)],
         [theta.g, tgt.phi]]
    )
    cone_psi = RingMatrix.block(
        [[-src.phi, z(tower, level, src.rank_g, tgt.rank_g)],
         [theta.f, tgt.psi]]
    )
    cone = MatrixFactorization(cone_phi, cone_psi)

    inc_f = RingMatrix.block(
        [[z(tower, level, src.rank_g, tgt.rank_f)],
         [RingMatrix.identity(tower, level, tgt.rank_f)]]
    )
    inc_g = RingMatrix.block(
        [[z(tower, level, src.rank_f, tgt.rank_g)],
         [RingMatrix.identity(tower, level, tgt.rank_g)]]
    )
    include = MfMorphism(tgt, cone, inc_f, inc_g)

    proj_f = RingMatrix.block(
        [[RingMatrix.identity(tower, level, src.rank_g),
          z(tower, level, src.rank_g, tgt.rank_f)]]
    )
    proj_g = RingMatrix.block(
        [[RingMatrix.identity(tower, level, src.rank_f),
          z(tower, level, src.rank_f, tgt.rank_g)]]
    )
    project = MfMorphism(cone, suspend(src), proj_f, proj_g)
    return cone, include, project


def dual_mf(a: MatrixFactorization) -> MatrixFactorization:
    """The dual factorization: transposed matrices in swapped roles, built
    and verified on the first call and kept with `a`, like `bars()`."""
    if a._dual is None:
        a._dual = MatrixFactorization(a.psi.transpose(), a.phi.transpose())
    return a._dual


@dataclass
class CokerPresentation:
    """Presentation of the cokernel of psi over the deep quotient.

    `presentation` is psi reduced to the QUOT level; `annihilation_cert`
    is phi, which witnesses that w times the identity factors through
    psi, so w kills the cokernel. `det_product` is det(phi)*det(psi) at
    MID level, which is w^rank there: determinants are multiplicative and
    psi@phi == w*1. A power of the non-zerodivisor w, it certifies that
    psi is injective.
    """

    mf: MatrixFactorization
    presentation: RingMatrix
    annihilation_cert: RingMatrix
    det_product: Polynomial
    w_power: int


def coker_presentation(a: MatrixFactorization) -> CokerPresentation:
    """Needs a MID factorization: over the quotient w is 0 and certifies
    nothing."""
    tower = a.tower
    if a.level != Level.MID:
        raise LevelMismatch(f"cokernel presentation needs a MID factorization, got {a.level.name}")
    presentation = a.psi.reduce_to(Level.QUOT)
    if (a.psi @ a.phi) != _w_identity(tower, Level.MID, a.rank_f):
        raise VerificationFailure("annihilation certificate failed: psi@phi != w*1")
    d = tower.normal_form(tower.w ** a.rank_f, Level.MID)
    return CokerPresentation(a, presentation, a.phi, d, a.rank_f)
