"""Acceptance suite: one test per criterion, with stated runtime limits.

Each criterion runs in full (counts are not reduced) and asserts zero
failures. A terminal-summary hook in conftest.py prints one PASS/FAIL
line per criterion at the end of the run.
"""

import contextlib
import io
import random
import time

import pytest

from mfkit.cli import main as cli_main
from mfkit.errors import AxiomViolation, NotDivisible
from mfkit.fields import QQ
from mfkit.groebner import (
    DivisionOracle,
    Ideal,
    buchberger_basis,
    normal_form,
    reduce_with_cofactors,
)
from mfkit.mfcat import (
    MatrixFactorization,
    MfMorphism,
    compose_morphisms,
    coker_presentation,
    direct_sum,
    dual_mf,
    identity_morphism,
    mapping_cone,
    suspend,
    verify_mf,
)
from mfkit.periodic import (
    ChainLiftInput,
    HomotopyTransportInput,
    dual_reduction_check,
    graded_acyclicity_window,
    graded_nullhomotopy_window,
    lift_chain_map,
    reduce_morphism,
    reduce_object,
    transport_nullhomotopy,
)
from mfkit.poly import MonomialOrder, PolyRing
from mfkit.tower import Level, RingMatrix, build_tower, det, validate_ci_presentation
from mfkit.workbench import load_workbench

from .cli_cases import CASES, argv_for
from .conftest import CORPUS_DIR, GOLDEN_DIR
from .genutil import (
    rand_homogeneous_matrix,
    rand_homogeneous_poly,
    rand_matrix,
    rand_nullhomotopic_morphism,
    rand_poly,
)
from .reference_groebner import membership_oracle

VALID_FILES = ("uv_hypersurface", "sum_of_squares", "tower_squares", "tower_cusp")
INVALID_FILES = {
    "invalid_axiom": ("psi@phi", 0, 0),
    "invalid_sign": ("psi@phi", 0, 0),
    "invalid_offdiag": ("psi@phi", 1, 0),
}
HOMOGENEOUS_OBJECTS = ("A", "B", "C")


def test_criterion_01_axiom_suite(objects):
    start = time.monotonic()
    for name in VALID_FILES:
        wb = load_workbench(str(CORPUS_DIR / f"{name}.mfw"))
        for mf_name in wb.names["mf"]:
            wb.get_mf(mf_name)
    for name, (identity, row, col) in INVALID_FILES.items():
        wb = load_workbench(str(CORPUS_DIR / f"{name}.mfw"))
        (mf_name,) = wb.names["mf"]
        with pytest.raises(AxiomViolation) as err:
            wb.get_mf(mf_name)
        assert err.value.identity == identity
        assert (err.value.row, err.value.col) == (row, col)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"axiom suite took {elapsed:.2f}s"


def test_criterion_02_determinant_consequence(objects):
    start = time.monotonic()
    rng = random.Random(2026_02)
    names = sorted(objects)
    for _ in range(100):
        base = objects[names[rng.randrange(len(names))]]
        tower = base.tower
        variants = [base, suspend(base), dual_mf(base)]
        obj = variants[rng.randrange(3)]
        for _ in range(rng.randrange(3)):
            obj = direct_sum(obj, variants[rng.randrange(3)])
        product = tower.normal_form(det(obj.phi) * det(obj.psi), Level.MID)
        w_pow = tower.normal_form(tower.w**obj.rank_f, Level.MID)
        assert product == w_pow or product == -w_pow
        assert obj.rank_f == obj.rank_g
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"determinant suite took {elapsed:.2f}s"


def test_criterion_03_triangulated_plumbing(objects):
    rng = random.Random(2026_03)
    names = sorted(objects)
    for i in range(100):
        base = objects[names[i % len(names)]]
        src = base if rng.random() < 0.5 else suspend(base)
        tgt = base if rng.random() < 0.5 else suspend(base)
        if rng.random() < 0.3:
            src = direct_sum(src, suspend(src))
        assert suspend(suspend(src)) == src
        theta, _, _ = rand_nullhomotopic_morphism(src, tgt, rng, max_degree=1)
        cone, include, project = mapping_cone(theta)  # constructors verify
        composite = compose_morphisms(project, include)
        assert composite.f.is_zero() and composite.g.is_zero()


def test_criterion_04_functor_laws(objects):
    rng = random.Random(2026_04)
    # Composite-zero for every corpus reduction.
    for mf in objects.values():
        c = reduce_object(mf)
        assert (c.phi @ c.psi).is_zero()
        assert (c.psi @ c.phi).is_zero()
    # Identity preservation.
    for mf in objects.values():
        cm = reduce_morphism(identity_morphism(mf))
        assert cm.f == RingMatrix.identity(mf.tower, Level.QUOT, mf.rank_f)
        assert cm.g == RingMatrix.identity(mf.tower, Level.QUOT, mf.rank_g)
    # Composition preservation on 100 randomized composable pairs.
    names = sorted(objects)
    for i in range(100):
        mf = objects[names[i % len(names)]]
        th1, _, _ = rand_nullhomotopic_morphism(mf, mf, rng, max_degree=1)
        th2, _, _ = rand_nullhomotopic_morphism(mf, mf, rng, max_degree=1)
        lhs = reduce_morphism(compose_morphisms(th2, th1))
        r1, r2 = reduce_morphism(th1), reduce_morphism(th2)
        assert lhs.f == r2.f @ r1.f
        assert lhs.g == r2.g @ r1.g
    # Transpose commutes with reduction on the full corpus.
    for mf in objects.values():
        assert dual_reduction_check(mf).matches


def test_criterion_05_faithfulness_transport(objects):
    start = time.monotonic()
    rng = random.Random(2026_05)
    names = sorted(objects)
    for i in range(200):
        mf = objects[names[i % len(names)]]
        tower = mf.tower
        theta, s, t = rand_nullhomotopic_morphism(mf, mf, rng, max_degree=2)
        d1 = rand_matrix(tower, rng, mf.rank_f, mf.rank_g, 1)
        d2 = rand_matrix(tower, rng, mf.rank_f, mf.rank_g, 1)
        inp = HomotopyTransportInput(
            theta, s + d1.scale(tower.w), t, s + d2.scale(tower.w)
        )
        # transport_nullhomotopy internally asserts the identity
        # p@psi1 == s1 - s2 + psi2@q and verifies the output homotopy.
        h = transport_nullhomotopy(inp)
        # Independent re-check of the homotopy identities against zero.
        assert (theta.f - (h.s @ mf.phi + mf.psi @ h.t)).is_zero()
        assert (theta.g - (h.t @ mf.psi + mf.phi @ h.s)).is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"transport suite took {elapsed:.2f}s"


def test_criterion_06_fullness_lift(objects):
    rng = random.Random(2026_06)
    names = sorted(objects)
    for i in range(200):
        mf = objects[names[i % len(names)]]
        tower = mf.tower
        theta0, _, _ = rand_nullhomotopic_morphism(mf, mf, rng, max_degree=2)
        eps = [rand_matrix(tower, rng, mf.rank_g, mf.rank_g, 1) for _ in range(3)]
        inp = ChainLiftInput(
            mf, mf,
            theta0.g + eps[0].scale(tower.w),
            theta0.f + eps[1].scale(tower.w),
            theta0.g + eps[2].scale(tower.w),
        )
        theta, witness = lift_chain_map(inp)
        # Witness identity over the quotient, re-checked independently.
        lhs = (theta.f - inp.f0).reduce_to(Level.QUOT)
        rhs = (
            -(mf.psi.reduce_to(Level.QUOT) @ witness.phi_gap_bar)
            + witness.psi_gap_bar @ mf.phi.reduce_to(Level.QUOT)
        )
        assert lhs == rhs
    # Window certification on the homogeneous corpus cases, degrees 0..6.
    for name in HOMOGENEOUS_OBJECTS:
        mf = objects[name]
        tower = mf.tower
        n = mf.rank_f
        for _ in range(5):
            theta0, _, _ = rand_nullhomotopic_morphism(mf, mf, rng, homogeneous_degree=1)
            eps = [rand_homogeneous_matrix(tower, rng, n, n, 0) for _ in range(3)]
            inp = ChainLiftInput(
                mf, mf,
                theta0.g + eps[0].scale(tower.w),
                theta0.f + eps[1].scale(tower.w),
                theta0.g + eps[2].scale(tower.w),
            )
            theta, _ = lift_chain_map(inp)
            eta = MfMorphism(
                reduce_object(mf), reduce_object(mf),
                inp.f0.reduce_to(Level.QUOT), inp.g0.reduce_to(Level.QUOT),
            )
            delta = reduce_morphism(theta) - eta
            window = graded_nullhomotopy_window(delta, 0, 6)
            assert window.solvable
            assert window.verified_positions == list(range(1, 7))


def test_criterion_07_acyclicity_oracle(objects):
    for name in HOMOGENEOUS_OBJECTS:
        report = graded_acyclicity_window(reduce_object(objects[name]), 0, 6)
        assert report.all_zero, f"object {name} not acyclic on window"
    # Seeded non-complex control: both maps zero on rank one.
    tower = objects["A"].tower
    z = RingMatrix.zeros(tower, Level.QUOT, 1, 1)
    control = MatrixFactorization(z, z)
    report = graded_acyclicity_window(control, 0, 6)
    assert not report.all_zero
    assert all(row.homology > 0 for row in report.rows)


def test_criterion_08_groebner_engine(towers):
    rng = random.Random(2026_08)
    rxy = PolyRing(("x", "y"), QQ)
    order = MonomialOrder.grevlex(2)
    bases = [
        buchberger_basis(Ideal((rxy.parse("y^2 - x^3"), rxy.parse("x^2*y - x")), order)),
        buchberger_basis(Ideal((rxy.parse("x^2"), rxy.parse("y^2")), order)),
        buchberger_basis(Ideal((rxy.parse("x*y - y^3"),), order)),
    ]
    # 1000 random inputs: idempotence and the exact cofactor identity.
    for i in range(1000):
        basis = bases[i % len(bases)]
        p = rand_poly(rxy, rng, max_degree=5, terms=4)
        nf = normal_form(p, basis)
        assert normal_form(nf, basis) == nf
        trace = reduce_with_cofactors(p, basis)
        recombined = trace.remainder
        for c, g in zip(trace.cofactors, basis.polys):
            recombined = recombined + c * g
        assert recombined == p
    # Membership agrees with the degree-bounded linear-algebra oracle.
    checked = 0
    while checked < 50:
        gens = [rand_homogeneous_poly(rxy, rng, rng.randint(1, 3)) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = buchberger_basis(Ideal(tuple(gens), order))
        if rng.random() < 0.5:
            p = rxy.zero()
            for g in gens:
                p = p + rand_homogeneous_poly(rxy, rng, rng.randint(0, 2)) * g
        else:
            p = rand_homogeneous_poly(rxy, rng, rng.randint(1, 4))
        if p.is_zero():
            continue
        gb_member = normal_form(p, basis).is_zero()
        oracle_member = membership_oracle(p, gens, max(p.degree(), 1))
        assert gb_member == oracle_member
        checked += 1
    # 500 exact divisions round-trip.
    oracle_towers = [towers[k] for k in sorted(towers)]
    oracles = {id(t): DivisionOracle(t.mid_basis, t.w) for t in oracle_towers}
    for i in range(500):
        tower = oracle_towers[i % len(oracle_towers)]
        ring = tower.ring
        a = rand_poly(ring, rng, max_degree=3, terms=3)
        p = tower.w * a
        for g in tower.mid_gens:
            p = p + g * rand_poly(ring, rng, max_degree=2, terms=2)
        q = oracles[id(tower)].divide(p)
        assert tower.normal_form(p - tower.w * q, Level.MID).is_zero()
    # 100 constructed non-divisible inputs raise NotDivisible.
    for i in range(100):
        tower = oracle_towers[i % len(oracle_towers)]
        ring = tower.ring
        monos = tower.standard_monomials(1)
        assert monos
        witness = ring.monomial(monos[i % len(monos)])
        p = tower.w * rand_poly(ring, rng, max_degree=2, terms=2) + witness
        with pytest.raises(NotDivisible):
            oracles[id(tower)].divide(p)


def test_criterion_09_tower_and_coker_setup():
    rxy = PolyRing(("x", "y"), QQ)
    # Regular sequence certificate: (x^2, y^2) in the square of the
    # maximal ideal, dimension drop 2 -> 0.
    report = validate_ci_presentation(rxy, [rxy.parse("x^2"), rxy.parse("y^2")])
    assert report.all_in_square
    assert report.regular is True
    assert (rxy.nvars, report.computed_dimension) == (2, 0)
    # Both towers with w = x^2: mid rings k[x,y]/(y^2) and k[x,y]/(y^2-x^3).
    t1 = build_tower(rxy, [rxy.parse("x^2"), rxy.parse("y^2")], [1, 0])
    assert t1.w == rxy.parse("x^2")
    assert list(t1.mid_gens) == [rxy.parse("y^2")]
    t2 = build_tower(rxy, [rxy.parse("x^2"), rxy.parse("y^2 - x^3")], [1, 0])
    assert t2.w == rxy.parse("x^2")
    assert list(t2.mid_gens) == [rxy.parse("y^2 - x^3")]
    assert t2.validation.regular is None  # inhomogeneous: unchecked premise
    # Cokernel of the [x],[x] object over the first tower.
    mf = verify_mf(
        RingMatrix.from_strings(t1, Level.MID, [["x"]]),
        RingMatrix.from_strings(t1, Level.MID, [["x"]]),
    )
    pres = coker_presentation(mf)
    assert pres.presentation == RingMatrix.from_strings(t1, Level.QUOT, [["x"]])
    assert pres.annihilation_cert == mf.phi
    assert (mf.psi @ mf.phi) == RingMatrix.identity(t1, Level.MID, 1).scale(t1.w)


def test_criterion_10_cli_golden():
    assert {c[2] for c in CASES} == {0, 1, 2, 3, 4}
    for name, argv, expected in CASES:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv_for(argv, CORPUS_DIR))
            assert code == expected, f"{name}: exit {code} != {expected}"
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1], f"{name}: runs differ"
        golden = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
        assert outputs[0] == golden, f"{name}: output differs from golden file"
