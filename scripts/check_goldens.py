#!/usr/bin/env python3
"""Check every golden CLI report through the installed `mfkit` executable.

Runs `mfkit` once per case of `CASES + FIELD_CASES` in tests/cli_cases.py
and compares its exit code and stdout bytes with tests/golden/. Stops at
the first mismatch and names the case. Run from any directory after
`pip install .`:

    python scripts/check_goldens.py
"""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tests.cli_cases import CASES, FIELD_CASES, argv_for  # noqa: E402


def run():
    exe = shutil.which("mfkit")
    if exe is None:
        raise SystemExit("no mfkit executable on PATH")
    for name, argv, expected in CASES + FIELD_CASES:
        result = subprocess.run([exe, *argv_for(argv, ROOT / "corpus")], capture_output=True)
        if result.returncode != expected:
            raise SystemExit(f"{name}: exit {result.returncode}, expected {expected}")
        if result.stdout != (ROOT / "tests" / "golden" / f"{name}.txt").read_bytes():
            raise SystemExit(f"{name}: stdout differs from its golden")
    print(f"{len(CASES + FIELD_CASES)} cases match their goldens")


if __name__ == "__main__":
    run()
