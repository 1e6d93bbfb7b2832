"""Earlier forms of `mfkit.periodic` code, kept as references that the
current code is tested against.

`graded_map` is the loop that `_graded_map` ran before it summed images
from the tower's normal forms of monomials: one QUOT normal form per
(entry, standard monomial) product, read off on the target degree's
standard monomials. Its images hold one field element per coordinate
(`reference_poly.RefField`), where `_graded_map` returns canonical int
images over one denominator, summed term by term from the rows of
`RingTower.quot_row`; it returns (images, source dimension, target
dimension). It reads monomials as exponent tuples (`PolyRing.exps`) and
multiplies by each standard monomial as a polynomial built with
`PolyRing.monomial`, where `quot_row` adds packed ints.

`window_rows` is the loop that `_window_rows` ran before it ranked each
differential on a complement of the other differential's image: every
source element of every graded map enters its rank, including those
that the known image already puts in the kernel.

`transport_nullhomotopy` and `lift_chain_map` check first that both
lifting defects vanish over the quotient, raising NotDivisible with the
input classes' messages, then build the defects again and divide them by
w, as the lifting algorithms did before their inputs kept the quotients.
"""

from __future__ import annotations

from mfkit import linalg
from mfkit.errors import NotDivisible, VerificationFailure
from mfkit.mfcat import (
    MatrixFactorization,
    MfHomotopy,
    MfMorphism,
    verify_homotopy,
    verify_morphism,
    zero_morphism,
)
from mfkit.periodic import HomologyRow, LiftWitness, _entry_degrees, _graded_map
from mfkit.tower import Level, RingMatrix, RingTower

from .reference_poly import coeffs


def graded_map(tower: RingTower, m: RingMatrix, src_degree: int, entry_degree: int):
    ring = tower.ring
    src_monos = tower.standard_monomials(src_degree) if src_degree >= 0 else []
    tgt_degree = src_degree + entry_degree
    tgt_monos = tower.standard_monomials(tgt_degree) if tgt_degree >= 0 else []
    ntgt = len(tgt_monos)
    tgt_index = {ring.exps(mono): k for k, mono in enumerate(tgt_monos)}
    images = []
    for j in range(m.ncols):
        column = [(i, row[j]) for i, row in enumerate(m.entries) if not row[j].is_zero()]
        for sm in src_monos:
            image = {}
            for i, p in column:
                prod = tower.normal_form(p * ring.monomial(ring.exps(sm)), Level.QUOT)
                for mono, coeff in coeffs(prod).items():
                    k = tgt_index.get(mono)
                    if k is None:
                        raise VerificationFailure(
                            "graded piece bookkeeping failed: unexpected monomial"
                        )
                    image[i * ntgt + k] = coeff
            images.append(image)
    return images, len(src_monos) * m.ncols, ntgt * m.nrows


def window_rows(c: MatrixFactorization, d_min: int, d_max: int) -> list[HomologyRow]:
    tower = c.tower
    field = tower.ring.field
    e_phi, e_psi = _entry_degrees(c)
    differentials = {"phi": (c.phi, e_phi), "psi": (c.psi, e_psi)}

    def rank_of(name: str, src_degree: int) -> int:
        m, entry_degree = differentials[name]
        if entry_degree is None or src_degree < 0:
            return 0
        images, _, src_dim, tgt_dim = _graded_map(tower, m, src_degree, entry_degree)
        return linalg.matrix_rank(images, field) if src_dim and tgt_dim else 0

    out = []
    for d in range(d_min, d_max + 1):
        piece = len(tower.standard_monomials(d))
        out.append(HomologyRow(d, "F", piece * c.rank_f - rank_of("phi", d),
                               rank_of("psi", d - (e_psi or 0))))
        out.append(HomologyRow(d, "G", piece * c.rank_g - rank_of("psi", d),
                               rank_of("phi", d - (e_phi or 0))))
    return out


def _divide_matrix(tower: RingTower, m: RingMatrix) -> RingMatrix:
    oracle = tower.oracle
    entries = [[oracle.divide(p) for p in row] for row in m.entries]
    return RingMatrix(tower, Level.MID, entries, m.ncols)


def _require_residue_zero(m: RingMatrix, failure: str):
    if not m.reduce_to(Level.QUOT).is_zero():
        raise NotDivisible(failure)


def transport_nullhomotopy(theta: MfMorphism, s1: RingMatrix, t: RingMatrix,
                           s2: RingMatrix) -> MfHomotopy:
    src, tgt = theta.source, theta.target
    why = (" does not vanish over the quotient,"
           " the given diagonals do not reduce to a nullhomotopy")
    _require_residue_zero(theta.f - s2 @ src.phi - tgt.psi @ t, "f - s2@phi1 - psi2@t" + why)
    _require_residue_zero(theta.g - t @ src.psi - tgt.phi @ s1, "g - t@psi1 - phi2@s1" + why)
    tower = theta.tower
    p_corr = _divide_matrix(tower, theta.f - s2 @ src.phi - tgt.psi @ t)
    q_corr = _divide_matrix(tower, theta.g - t @ src.psi - tgt.phi @ s1)
    if p_corr @ src.psi != s1 - s2 + tgt.psi @ q_corr:
        raise VerificationFailure("internal identity p@psi1 == s1 - s2 + psi2@q failed")
    t_prime = t + tgt.phi @ p_corr
    return verify_homotopy(theta, zero_morphism(src, tgt), s2, t_prime)


def lift_chain_map(src: MatrixFactorization, tgt: MatrixFactorization, g1: RingMatrix,
                   f0: RingMatrix, g0: RingMatrix) -> tuple[MfMorphism, LiftWitness]:
    why = (" does not vanish over the quotient,"
           " the lifted window is not a chain-map section")
    _require_residue_zero(tgt.phi @ f0 - g0 @ src.phi, "phi2@f0 - g0@phi1" + why)
    _require_residue_zero(tgt.psi @ g1 - f0 @ src.psi, "psi2@g1 - f0@psi1" + why)
    tower = src.tower
    phi_gap = _divide_matrix(tower, tgt.phi @ f0 - g0 @ src.phi)
    psi_gap = _divide_matrix(tower, tgt.psi @ g1 - f0 @ src.psi)
    if tgt.psi @ phi_gap @ src.psi != f0 @ src.psi - tgt.psi @ g0:
        raise VerificationFailure(
            "internal identity psi2@phi_gap@psi1 == f0@psi1 - psi2@g0 failed"
        )
    f = f0 - tgt.psi @ phi_gap + psi_gap @ src.phi
    g = g0 + tgt.phi @ psi_gap
    theta = verify_morphism(src, tgt, f, g)
    phi_gap_bar = phi_gap.reduce_to(Level.QUOT)
    psi_gap_bar = psi_gap.reduce_to(Level.QUOT)
    lhs_bar = (f - f0).reduce_to(Level.QUOT)
    rhs_bar = -(tgt.psi.reduce_to(Level.QUOT) @ phi_gap_bar) + psi_gap_bar @ src.phi.reduce_to(Level.QUOT)
    if lhs_bar != rhs_bar:
        raise VerificationFailure(
            "witness identity f_bar - f0_bar == -psi2_bar@phi_gap_bar"
            " + psi_gap_bar@phi1_bar failed"
        )
    return theta, LiftWitness(phi_gap, psi_gap, phi_gap_bar, psi_gap_bar)
