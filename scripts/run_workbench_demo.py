#!/usr/bin/env python3
"""End-to-end tour of the workbench on the shipped corpus.

Builds each corpus tower, verifies the factorizations, reduces them to
2-periodic complexes, runs the degree-window acyclicity oracle where the
data is graded, and exercises both lifting algorithms with randomized
perturbations. Run from the repository root:

    python scripts/run_workbench_demo.py [seed]
"""

import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mfkit.errors import NotHomogeneous  # noqa: E402
from mfkit.mfcat import MfMorphism, identity_morphism, mapping_cone, suspend  # noqa: E402
from mfkit.periodic import (  # noqa: E402
    ChainLiftInput,
    HomotopyTransportInput,
    dual_reduction_check,
    graded_acyclicity_window,
    graded_nullhomotopy_window,
    lift_chain_map,
    reduce_morphism,
    reduce_object,
    transport_nullhomotopy,
    twist_of,
)
from mfkit.tower import Level, RingMatrix  # noqa: E402
from mfkit.workbench import load_workbench  # noqa: E402

FILES = ("uv_hypersurface", "sum_of_squares", "tower_squares", "tower_cusp")


def rand_matrix(tower, rng, nrows, ncols, degree):
    ring = tower.ring
    entries = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            p = ring.zero()
            for _ in range(3):
                exps = [0] * ring.nvars
                for _ in range(degree):
                    exps[rng.randrange(ring.nvars)] += 1
                p = p + ring.monomial(tuple(exps), ring.field.from_int(rng.randint(-2, 2)))
            row.append(p)
        entries.append(row)
    return RingMatrix(tower, Level.MID, entries)


def demo_file(name: str, rng: random.Random):
    wb = load_workbench(str(ROOT / "corpus" / f"{name}.mfw"))
    tower = wb.tower
    print(f"== {name}")
    print(f"   tower: {tower!r}")
    for line in tower.validation.lines():
        print(f"   {line}")
    for mf_name in wb.names["mf"]:
        mf = wb.get_mf(mf_name)
        print(f"   mf {mf_name}: verified, rank {mf.rank_f}")
        cone, _, _ = mapping_cone(identity_morphism(mf))
        print(f"   cone of identity has rank {cone.rank_f}; suspension round trip: "
              f"{suspend(suspend(mf)) == mf}")
        complex_ = reduce_object(mf)
        print(f"   reduction twist {twist_of(tower)}; transpose/reduce commute: "
              f"{dual_reduction_check(mf).matches}")
        try:
            report = graded_acyclicity_window(complex_, 0, 6)
            print(f"   acyclicity window 0..6 all zero: {report.all_zero}")
        except NotHomogeneous:
            print("   acyclicity window skipped (inhomogeneous data)")

        # Faithfulness direction: transport a perturbed reduced nullhomotopy.
        n = mf.rank_f
        s = rand_matrix(tower, rng, n, n, 1)
        t = rand_matrix(tower, rng, n, n, 1)
        theta_f = s @ mf.phi + mf.psi @ t
        theta_g = t @ mf.psi + mf.phi @ s
        from mfkit.mfcat import verify_morphism

        theta = verify_morphism(mf, mf, theta_f, theta_g)
        d1 = rand_matrix(tower, rng, n, n, 1)
        d2 = rand_matrix(tower, rng, n, n, 1)
        transported = transport_nullhomotopy(
            HomotopyTransportInput(theta, s + d1.scale(tower.w), t, s + d2.scale(tower.w))
        )
        print(f"   transport: homotopy diagonals s={transported.s.format_rows()}")

        # Fullness direction: lift a perturbed reduction back to a morphism.
        eps = [rand_matrix(tower, rng, n, n, 1) for _ in range(3)]
        lift_input = ChainLiftInput(
            mf, mf,
            theta.g + eps[0].scale(tower.w),
            theta.f + eps[1].scale(tower.w),
            theta.g + eps[2].scale(tower.w),
        )
        lifted, witness = lift_chain_map(lift_input)
        print(f"   lift: morphism verified, defects zero: "
              f"{witness.phi_gap.is_zero() and witness.psi_gap.is_zero()}")
        try:
            eta = MfMorphism(
                complex_, complex_,
                lift_input.f0.reduce_to(Level.QUOT),
                lift_input.g0.reduce_to(Level.QUOT),
            )
            delta = reduce_morphism(lifted) - eta
            window = graded_nullhomotopy_window(delta, 0, 6)
            print(f"   lift certified homotopic to input on window: {window.solvable}")
        except NotHomogeneous:
            print("   nullhomotopy window skipped (inhomogeneous data)")
    print()


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    rng = random.Random(seed)
    for name in FILES:
        demo_file(name, rng)


if __name__ == "__main__":
    main()
