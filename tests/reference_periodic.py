"""The per-product graded map, kept as the reference that
`mfkit.periodic._graded_map` is tested against.

`graded_map` is the loop that `_graded_map` ran before it summed images
from a table of monomial normal forms: one QUOT normal form per (entry,
standard monomial) product, read off on the target degree's standard
monomials. It returns the same (images, source dimension, target
dimension) triple.
"""

from __future__ import annotations

from mfkit.errors import VerificationFailure
from mfkit.tower import Level, RingMatrix, RingTower


def graded_map(tower: RingTower, m: RingMatrix, src_degree: int, entry_degree: int):
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
