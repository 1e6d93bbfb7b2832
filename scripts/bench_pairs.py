#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against the working tree.

Usage, from anywhere inside the repository:

    python3 scripts/bench_pairs.py REV [--workload lift|window|cli]
                                   [--pairs N] [--seconds T] [--seed S]

Exports REV with `git archive REV | tar -x` into a temporary directory,
then runs `python3 bench/run.py --workload W --seed S --seconds T` there
and in the working tree, one run each per pair. Pair k runs seed S + k on
both sides, and the side that runs first alternates from pair to pair, so
neither side always runs on a warmer or a cooler machine. The script
prints, per end-to-end metric of BENCHMARK.json, each side's median and
quartiles and the number of pairs the working tree won (ties count for
neither side), and the failed ops of each side.

It writes nothing under the repository; the export goes to a temporary
directory that is removed at the end. The exit status is 0 when every run
printed `correct: true`, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def export(rev: str, dest: pathlib.Path):
    """The tree of `rev`, as `git archive REV | tar -x` writes it, in dest."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, encoding="utf-8")
    if commit.returncode:
        raise SystemExit(f"bench_pairs: not a revision: {rev}")
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit.stdout.strip()],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise SystemExit(f"bench_pairs: could not export {rev}")


def run_bench(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one bench/run.py run in `tree`."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, encoding="utf-8")
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"bench_pairs: no result from {tree} (exit {proc.returncode})") from None


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the parent revision, for example HEAD or HEAD~1")
    parser.add_argument("--workload", choices=("lift", "window", "cli"), default="lift")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1, help="the seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    results = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent = pathlib.Path(tmp)
        export(args.rev, parent)
        trees = {"parent": parent, "change": ROOT}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_bench(trees[side], args.workload, args.seed + k, args.seconds)
                results[side].append(result)
                print(f"pair {k + 1}/{args.pairs} seed {args.seed + k} {side}: "
                      f"correct {result['correct']}, failed {result['failed']}/{result['attempted']}",
                      flush=True)

    print(f"\n{args.workload}: {args.rev} (parent) vs working tree (change), {args.pairs} pairs, "
          f"--seconds {args.seconds}; quartiles q1/median/q3")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name]["value"] for r in runs] for side, runs in results.items()}
        if not all(values.values()):
            continue
        won = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        unit = results["parent"][0]["metrics"][name]["unit"]
        cells = " | ".join("/".join(f"{v:.4g}" for v in quartiles(values[side]))
                           for side in ("parent", "change"))
        print(f"  {name:14} {cells} {unit}  change won {won}/{args.pairs}")
    for side, runs in results.items():
        print(f"  failed ops, {side}: {sum(r['failed'] for r in runs)}"
              f"/{sum(r['attempted'] for r in runs)}")
    return 0 if all(r["correct"] for runs in results.values() for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
