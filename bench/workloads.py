"""The benchmark's three workloads: inputs made from a seed, ops, checks.

A workload's `setup(seed, workdir)` builds everything the timed phase
needs; `cycle(state, k)` returns the k-th cycle of ops. Each op is an
`Op` whose `run()` calls into mfkit and returns its output, and whose
`check(output)` re-verifies that output independently of timing. Runs
always execute whole cycles, so the mix of op kinds, and with it every
percentile, does not depend on where the clock stops.

mfkit receives only the generated objects or `.mfw` text. Every call
goes through a module attribute (`periodic.lift_chain_map`, not a name
imported here), so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import random
import runpy
from dataclasses import dataclass
from typing import Any, Callable

import mfkit.cli as cli
import mfkit.groebner as groebner
import mfkit.mfcat as mfcat
import mfkit.periodic as periodic
import mfkit.workbench as workbench
from mfkit.fields import QQ, PrimeField
from mfkit.poly import PolyRing
from mfkit.tower import Level, RingMatrix, build_tower

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "golden"
CLI_CASES = ROOT / "tests" / "cli_cases.py"


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


# -- generators ---------------------------------------------------------------
# The same constructions as the test suite's generators, kept here so that
# a change to the tests cannot change the benchmark's inputs.


def rand_poly(ring, rng, max_degree=2, terms=3, coeff_bound=3):
    p = ring.zero()
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        c = rng.randint(-coeff_bound, coeff_bound)
        p = p + ring.monomial(tuple(exps), ring.field.from_int(c))
    return p


def rand_homogeneous_poly(ring, rng, degree, coeff_bound=3):
    p = ring.zero()
    for exps in groebner.monomials_of_degree(ring.nvars, degree):
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            p = p + ring.monomial(exps, ring.field.from_int(c))
    return p


def rand_matrix(tower, rng, nrows, ncols, max_degree):
    rows = [[rand_poly(tower.ring, rng, max_degree) for _ in range(ncols)] for _ in range(nrows)]
    return RingMatrix(tower, Level.MID, rows)


def rand_homogeneous_matrix(tower, rng, nrows, ncols, degree):
    rows = [
        [rand_homogeneous_poly(tower.ring, rng, degree) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return RingMatrix(tower, Level.MID, rows)


def rand_nullhomotopic_endo(mf, rng, max_degree=2, homogeneous_degree=None):
    """(theta, s, t) with theta = (s@phi + psi@t, t@psi + phi@s), a
    morphism nullhomotopic on the nose."""
    tower = mf.tower
    if homogeneous_degree is None:
        s = rand_matrix(tower, rng, mf.rank_f, mf.rank_g, max_degree)
        t = rand_matrix(tower, rng, mf.rank_g, mf.rank_f, max_degree)
    else:
        s = rand_homogeneous_matrix(tower, rng, mf.rank_f, mf.rank_g, homogeneous_degree)
        t = rand_homogeneous_matrix(tower, rng, mf.rank_g, mf.rank_f, homogeneous_degree)
    f = s @ mf.phi + mf.psi @ t
    g = t @ mf.psi + mf.phi @ s
    return mfcat.verify_morphism(mf, mf, f, g), s, t


def koszul_mf(n, field):
    """Koszul factorization of w = x0*y0 + ... + x{n-1}*y{n-1}, rank 2^(n-1).

    Start from ([x0], [y0]) and tensor with ([x_i], [y_i]):
    (P, Q) -> ([[P, -y_i], [x_i, Q]], [[Q, y_i], [-x_i, P]]).
    """
    ring = PolyRing(tuple(f"x{i}" for i in range(n)) + tuple(f"y{i}" for i in range(n)), field)
    xs = [ring.var(i) for i in range(n)]
    ys = [ring.var(n + i) for i in range(n)]
    w = ring.zero()
    for x, y in zip(xs, ys):
        w = w + x * y
    tower = build_tower(ring, [w], [1])
    p, q = [[xs[0]]], [[ys[0]]]
    zero = ring.zero()
    for x, y in zip(xs[1:], ys[1:]):
        r = len(p)

        def scalar(c):
            return [[c if i == j else zero for j in range(r)] for i in range(r)]

        def block(a, b, c, d):
            return [ra + rb for ra, rb in zip(a, b)] + [rc + rd for rc, rd in zip(c, d)]

        p, q = block(p, scalar(-y), scalar(x), q), block(q, scalar(y), scalar(-x), p)
    return mfcat.verify_mf(RingMatrix(tower, Level.MID, p), RingMatrix(tower, Level.MID, q))


# -- lift ---------------------------------------------------------------------

LIFT_CORPUS = (("uv_hypersurface", "A"), ("sum_of_squares", "B"),
               ("tower_squares", "C"), ("tower_cusp", "D"))
# 13 corpus ops and one rank-4 transport and lift per cycle: the corpus
# ops set op_p50_ms, the rank-4 transport sits at op_p90_ms, and the
# rank-4 ops carry most of the time.
LIFT_CORPUS_PER_CYCLE = 13
LIFT_CORPUS_POOL = 64
LIFT_RANK4_POOL = 8


def transport_op(mf, rng):
    tower = mf.tower
    theta, s, t = rand_nullhomotopic_endo(mf, rng)
    d1 = rand_matrix(tower, rng, mf.rank_f, mf.rank_g, 1)
    d2 = rand_matrix(tower, rng, mf.rank_f, mf.rank_g, 1)
    s1, s2 = s + d1.scale(tower.w), s + d2.scale(tower.w)

    def run():
        return periodic.transport_nullhomotopy(periodic.HomotopyTransportInput(theta, s1, t, s2))

    def check(h):
        # The homotopy identities against zero, as criterion 05 re-checks.
        return ((theta.f - (h.s @ mf.phi + mf.psi @ h.t)).is_zero()
                and (theta.g - (h.t @ mf.psi + mf.phi @ h.s)).is_zero())

    return Op("transport", run, check)


def lift_op(mf, rng):
    tower = mf.tower
    theta0, _, _ = rand_nullhomotopic_endo(mf, rng)
    eps = [rand_matrix(tower, rng, mf.rank_g, mf.rank_g, 1).scale(tower.w) for _ in range(3)]
    g1, f0, g0 = theta0.g + eps[0], theta0.f + eps[1], theta0.g + eps[2]

    def run():
        return periodic.lift_chain_map(periodic.ChainLiftInput(mf, mf, g1, f0, g0))

    def check(result):
        # The witness identity over the quotient, as criterion 06 re-checks.
        theta, witness = result
        lhs = (theta.f - f0).reduce_to(Level.QUOT)
        rhs = (-(mf.psi.reduce_to(Level.QUOT) @ witness.phi_gap_bar)
               + witness.psi_gap_bar @ mf.phi.reduce_to(Level.QUOT))
        return lhs == rhs

    return Op("lift", run, check)


def lift_setup(seed, workdir):
    rng = random.Random(seed)
    objs = [workbench.load_workbench(str(CORPUS / f"{f}.mfw")).get_mf(n) for f, n in LIFT_CORPUS]
    k3 = koszul_mf(3, QQ)
    corpus = []
    for g in range(LIFT_CORPUS_POOL):
        make = transport_op if (g // len(objs)) % 2 == 0 else lift_op
        corpus.append(make(objs[g % len(objs)], rng))
    rank4 = [(transport_op(k3, rng), lift_op(k3, rng)) for _ in range(LIFT_RANK4_POOL)]
    return corpus, rank4


def lift_cycle(state, k):
    corpus, rank4 = state
    ops = [corpus[(k * LIFT_CORPUS_PER_CYCLE + j) % len(corpus)]
           for j in range(LIFT_CORPUS_PER_CYCLE)]
    return ops + list(rank4[k % len(rank4)])


# -- window -------------------------------------------------------------------

WINDOW_DELTA_POOL = 3


def acyclicity_op(kind, complex_, d_min, d_max):
    def run():
        return periodic.graded_acyclicity_window(complex_, d_min, d_max)

    return Op(kind, run, lambda report: report.all_zero)


def nullhomotopy_op(kind, delta, p_max):
    def run():
        return periodic.graded_nullhomotopy_window(delta, 0, p_max)

    def check(window):
        return window.solvable and window.verified_positions == list(range(1, p_max + 1))

    return Op(kind, run, check)


def window_delta(mf, rng):
    """Criterion-06-style delta: a lifted chain map minus its input."""
    tower = mf.tower
    n = mf.rank_f
    theta0, _, _ = rand_nullhomotopic_endo(mf, rng, homogeneous_degree=1)
    eps = [rand_homogeneous_matrix(tower, rng, n, n, 0).scale(tower.w) for _ in range(3)]
    inp = periodic.ChainLiftInput(mf, mf, theta0.g + eps[0], theta0.f + eps[1], theta0.g + eps[2])
    theta, _ = periodic.lift_chain_map(inp)
    c = periodic.reduce_object(mf)
    eta = periodic.PeriodicChainMap(c, c, inp.f0.reduce_to(Level.QUOT), inp.g0.reduce_to(Level.QUOT))
    return periodic.reduce_morphism(theta) - eta


def window_setup(seed, workdir):
    rng = random.Random(seed)
    k2, k3 = koszul_mf(2, QQ), koszul_mf(3, QQ)
    k3p = koszul_mf(3, PrimeField(32003))
    acyclic = [
        acyclicity_op("acyclic_n2_qq", periodic.reduce_object(k2), 0, 6),
        acyclicity_op("acyclic_n3_qq", periodic.reduce_object(k3), 0, 3),
        acyclicity_op("acyclic_n3_fp", periodic.reduce_object(k3p), 0, 3),
    ]
    null = [
        (nullhomotopy_op("null_n2", window_delta(k2, rng), 6),
         nullhomotopy_op("null_n3", window_delta(k3, rng), 2))
        for _ in range(WINDOW_DELTA_POOL)
    ]
    return acyclic, null


def window_cycle(state, k):
    acyclic, null = state
    return acyclic + list(null[k % len(null)])


# -- cli ----------------------------------------------------------------------

CLI_GENERATED_POOL = 12
CLI_GENERATED_PER_CYCLE = 3
CI_VARS = ("a", "b", "c", "d", "e")


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_case_op(argv, expected_code, golden):
    def run():
        return run_cli(argv)

    return Op("corpus", run, lambda out: out == (expected_code, golden))


def ci_text(rng):
    """A .mfw tower of 3 generic quadrics in 5 variables, w the first."""
    monos = groebner.monomials_of_degree(len(CI_VARS), 2)
    gens = []
    while len(gens) < 3:
        terms = []
        for exps in monos:
            c = rng.randint(-3, 3)
            if c:
                factors = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(CI_VARS, exps) if e)
                terms.append(f"{c}*{factors}")
        if terms:
            gens.append(" + ".join(terms))
    return ("[ring]\nfield = qq\nvars = " + ", ".join(CI_VARS) + "\norder = grevlex\n"
            "gens = " + ", ".join(gens) + "\nw_coords = 1, 0, 0\n")


def generated_op(command, path, first_output):
    argv = [command, str(path)]

    def run():
        return run_cli(argv)

    def check(out):
        code, text = out
        if code != 0 or (command == "validate" and "\nregularity: ok" not in text):
            return False
        # Same bytes on every pass over this file.
        return first_output.setdefault((command, str(path)), text) == text

    return Op(f"generated_{command}", run, check)


def cli_setup(seed, workdir):
    rng = random.Random(seed)
    cases = runpy.run_path(str(CLI_CASES))
    corpus = []
    for name, argv, code in cases["CASES"]:
        golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        corpus.append(cli_case_op(cases["argv_for"](argv, CORPUS), code, golden))
    first_output: dict = {}
    generated = []
    for i in range(CLI_GENERATED_POOL):
        path = pathlib.Path(workdir) / f"ci_{seed}_{i}.mfw"
        path.write_text(ci_text(rng), encoding="utf-8")
        generated.append([generated_op(c, path, first_output) for c in ("validate", "gb")])
    return corpus, generated


def cli_cycle(state, k):
    corpus, generated = state
    ops = list(corpus)
    for i in range(CLI_GENERATED_PER_CYCLE):
        ops.extend(generated[(k * CLI_GENERATED_PER_CYCLE + i) % len(generated)])
    return ops


@dataclass(frozen=True)
class Workload:
    setup: Callable
    cycle: Callable
    trace_cycles: int  # fixed, so the traced run's counts repeat exactly
    required_span: str  # the traced run fails if this span records no call


WORKLOADS = {
    "lift": Workload(lift_setup, lift_cycle, 8, "groebner.oracle_divide"),
    "window": Workload(window_setup, window_cycle, 1, "linalg.rank"),
    "cli": Workload(cli_setup, cli_cycle, 2, "groebner.buchberger"),
}
