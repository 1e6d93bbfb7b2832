#!/usr/bin/env python3
"""Regenerate the golden CLI outputs in tests/golden/.

Run from the repository root after an intentional output change:

    python scripts/regen_golden.py
"""

import contextlib
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from mfkit.cli import main  # noqa: E402
from tests.cli_cases import CASES, FIELD_CASES, argv_for  # noqa: E402


def run():
    corpus = ROOT / "corpus"
    golden = ROOT / "tests" / "golden"
    golden.mkdir(exist_ok=True)
    for name, argv, expected in CASES + FIELD_CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv_for(argv, corpus))
        if code != expected:
            raise SystemExit(f"{name}: exit {code}, expected {expected}")
        (golden / f"{name}.txt").write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote {name}.txt (exit {code})")


if __name__ == "__main__":
    run()
