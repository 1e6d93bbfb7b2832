"""mfkit benchmark: closed-loop workloads over the workbench.

Usage, from the repository root:

    python3 bench/run.py [--workload lift|window|cli|all] [--seed N]
                         [--seconds S] [--trace 0|1]

One workload runs in this interpreter, single-threaded, as a closed loop
with one caller. `--workload all` (the default) runs each workload in a
fresh interpreter, one after the other. With `--trace 0` the run reports
the end-to-end metrics; with `--trace 1` it runs a fixed list of ops once
untraced and once traced and reports per-layer metrics. Every output is
checked. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The exit status is 0 when
every check passed and 1 otherwise. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from speed import SpeedSampler, scaled_probe_edges

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("lift", "window", "cli")
SETUP_REPEATS = 3
COLD_START_RUNS = 11
COLD_START_ARGV = ("-m", "mfkit.cli", "validate", "corpus/uv_hypersurface.mfw")
COLD_START_GOLDEN = ROOT / "tests" / "golden" / "validate_uv.txt"

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_start_ms": "ms",
}

# Spans reported with call counts and self time, and spans reported with
# self time only.
CALL_AND_SELF_SPANS = (
    "linalg.rank", "linalg.solve", "groebner.buchberger", "groebner.divide_full",
    "groebner.normal_form", "groebner.oracle_divide", "tower.matmul", "poly.mul",
    "poly.add", "mfcat.verify",
)
SELF_ONLY_SPANS = (
    "tower.build", "periodic.transport", "periodic.lift", "periodic.acyclicity_window",
    "periodic.nullhomotopy_window", "poly.parse", "workbench.load", "cli.main", "bench.op",
)
PER_LAYER_UNITS = {
    **{f"{s}.calls": "count" for s in CALL_AND_SELF_SPANS},
    **{f"{s}.self_s": "s" for s in CALL_AND_SELF_SPANS + SELF_ONLY_SPANS},
    "linalg.cells": "count",
    "linalg.nonzero_frac": "ratio",
    "linalg.rank_repeat_frac": "ratio",
    "fields.ops": "count",
    "poly.order_key.calls": "count",
    "groebner.basis_len": "count",
    "groebner.spair_zero_frac": "ratio",
    "trace.timed_s": "s",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_op(op):
    """Run one op; returns (start, end, output, exception or None)."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed op is counted, the loop goes on
        return start, time.perf_counter(), None, exc
    return start, time.perf_counter(), out, None


class Failures:
    """Counts ops that raised or whose output failed its check, printing
    the first. Each output is checked as soon as its op returns and then
    dropped, so that kept outputs do not grow the peak resident set."""

    def __init__(self):
        self.count = 0

    def check(self, op, out, err):
        if err is None:
            try:
                if op.check(out):
                    return
                err = AssertionError("output check failed")
            except Exception as exc:
                err = exc
        if not self.count:
            print(f"first failed op ({op.kind}):", file=sys.stderr)
            traceback.print_exception(type(err), err, err.__traceback__, file=sys.stderr)
        self.count += 1


def cold_start_ms() -> tuple[float, bool]:
    """Median time of fresh `python -m mfkit.cli validate` processes, and
    whether every one printed the golden report with exit status 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    golden = COLD_START_GOLDEN.read_text(encoding="utf-8")
    ok = True

    def launch():
        nonlocal ok
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *COLD_START_ARGV], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        ok = ok and proc.returncode == 0 and proc.stdout == golden
        return elapsed

    times = [scaled_probe_edges(launch) for _ in range(COLD_START_RUNS)]
    return statistics.median(times) * 1000.0, ok


def closed_loop(wl, state, seconds: float, failures: Failures):
    """Whole cycles of ops until `seconds` have passed; op intervals."""
    intervals = []
    start = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - start < seconds:
        for op in wl.cycle(state, cycles):
            t0, t1, out, err = run_op(op)
            intervals.append((t0, t1))
            failures.check(op, out, err)
        cycles += 1
    return intervals, cycles


def end_to_end(args, wl, state, sampler, setup_s):
    """The end-to-end metrics, every time at the sampler's nominal speed."""
    failures = Failures()
    with sampler:
        intervals, cycles = closed_loop(wl, state, args.seconds, failures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cold_ms, cold_ok = cold_start_ms()
    if not cold_ok:
        print("cold start: output or exit code differs from the golden report", file=sys.stderr)

    latencies = [sampler.nominal(t0, t1) for t0, t1 in intervals]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_p90_ms": deciles[8] * 1000.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "cold_start_ms": cold_ms,
    }
    raw = sum(t1 - t0 for t0, t1 in intervals)
    note = (f"cycles={cycles} ops={len(latencies)} op_wall_s={raw:.3f}"
            f" probes={len(sampler.took)} probe_median_ms={statistics.median(sampler.took) * 1000:.4f}")
    return len(intervals), failures.count, cold_ok, metrics, END_TO_END_UNITS, note


def traced(args, wl, state):
    """Each op of the fixed list untraced, then at once traced, so that
    the machine's drift cancels in the overhead; per-layer metrics."""
    from spans import OP_SPAN, Tracer

    ops = [op for k in range(wl.trace_cycles) for op in wl.cycle(state, k)]
    tracer = Tracer()
    failures = Failures()
    untraced_s = traced_s = 0.0
    for op in ops:
        t0, t1, out, err = run_op(op)
        untraced_s += t1 - t0
        failures.check(op, out, err)
        with tracer.installed(), tracer.span(OP_SPAN):
            t0, t1, out, err = run_op(op)
        traced_s += t1 - t0
        failures.check(op, out, err)

    calls, self_s = tracer.layer_totals()
    metrics = {}
    for name in CALL_AND_SELF_SPANS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in CALL_AND_SELF_SPANS + SELF_ONLY_SPANS:
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics.update({
        "linalg.cells": tracer.linalg_cells,
        "linalg.nonzero_frac": ratio(tracer.linalg_nonzero, tracer.linalg_cells),
        "linalg.rank_repeat_frac": ratio(tracer.rank_repeats, tracer.rank_inputs),
        "fields.ops": tracer.counts["fields.ops"][0],
        "poly.order_key.calls": tracer.counts["poly.order_key"][0],
        "groebner.basis_len": ratio(sum(tracer.basis_lens), len(tracer.basis_lens)),
        "groebner.spair_zero_frac": ratio(tracer.spair_zero, tracer.spair_divides),
        "trace.timed_s": traced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    })

    # Self-test: the layer this workload exists to exercise must be seen.
    covered = calls.get(wl.required_span, 0) > 0
    if not covered:
        print(f"self-test: span {wl.required_span} recorded no calls on {args.workload}",
              file=sys.stderr)
    for missing in sorted(tracer.missing):
        print(f"trace: target not found: {missing}", file=sys.stderr)
    spans_path = OUT / f"spans-{args.workload}.jsonl"
    tracer.write(spans_path)
    note = (f"ops={len(ops)} untraced_s={untraced_s:.3f} traced_s={traced_s:.3f}"
            f" spans={len(tracer.end)} written to {spans_path.relative_to(ROOT)}")
    return 2 * len(ops), failures.count, covered, metrics, PER_LAYER_UNITS, note


def set_up(args, workdir):
    """One set-up: import mfkit afresh, then generate the inputs and build
    the towers and objects. Returns the workload, its state and the two
    timed intervals (the import of the benchmark's own module is not)."""
    for name in [m for m in sys.modules if m in ("mfkit", "workloads") or m.startswith("mfkit.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("mfkit.cli")  # the package imports every other module
    imported = time.perf_counter()
    wl = importlib.import_module("workloads").WORKLOADS[args.workload]
    built_from = time.perf_counter()
    state = wl.setup(args.seed, workdir)
    return wl, state, [(start, imported), (built_from, time.perf_counter())]


def run_workload(args) -> int:
    if not (SRC / "mfkit" / "__init__.py").is_file():
        print(f"error: no mfkit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    sampler = SpeedSampler()
    try:
        # The sampler runs through set-up on untraced runs only, so that no
        # probe lands inside a traced span.
        setups = []
        with contextlib.nullcontext() if args.trace else sampler:
            for _ in range(1 if args.trace else SETUP_REPEATS):
                state = None  # the previous set-up's objects go before the next is built
                wl, state, intervals = set_up(args, workdir)
                setups.append(intervals)
        if args.trace:
            attempted, failed, extra_ok, metrics, units, note = traced(args, wl, state)
        else:
            setup_s = statistics.median(
                sum(sampler.nominal(t0, t1) for t0, t1 in intervals) for intervals in setups)
            attempted, failed, extra_ok, metrics, units, note = end_to_end(
                args, wl, state, sampler, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0 and extra_ok
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} {note}")
    for name, value in metrics.items():
        print(f"  {name:36} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':36} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
