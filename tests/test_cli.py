"""CLI behaviour: exit codes, determinism, golden outputs."""

import contextlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkit.cli
from mfkit.cli import main
from mfkit.periodic import HomologyRow, graded_acyclicity_window

from .cli_cases import CASES, FIELD_CASES, argv_for
from .conftest import CORPUS_DIR, GOLDEN_DIR
from .genutil import cyclic_garbage


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv,expected", CASES + FIELD_CASES,
                         ids=[c[0] for c in CASES + FIELD_CASES])
def test_golden(name, argv, expected):
    code, out = run_cli(argv_for(argv, CORPUS_DIR))
    assert code == expected
    golden = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert out == golden


@pytest.mark.parametrize("name,argv,expected", CASES + FIELD_CASES,
                         ids=[c[0] for c in CASES + FIELD_CASES])
def test_two_runs_byte_identical(name, argv, expected):
    first = run_cli(argv_for(argv, CORPUS_DIR))
    second = run_cli(argv_for(argv, CORPUS_DIR))
    assert first == second


def test_basis_changed_copy_has_the_original_window_table():
    # sum_of_squares_copy.mfw holds (P@phi@Q^-1, Q@psi@P^-1) for
    # sum_of_squares.mfw's B: an isomorphic complex, so the same report.
    copy = (GOLDEN_DIR / "acyclic_b_copy.txt").read_bytes()
    assert copy == (GOLDEN_DIR / "acyclic_b.txt").read_bytes()


def test_shared_parser_keeps_no_options_between_calls():
    # The parser is built once per process: a window call with its own
    # options, then a plain call, must each give their golden report.
    cases = {c[0]: c for c in CASES}
    for name in ("acyclic_a_csv", "validate_uv"):
        _, argv, expected = cases[name]
        code, out = run_cli(argv_for(argv, CORPUS_DIR))
        assert code == expected
        assert out == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name,argv,expected", CASES, ids=[c[0] for c in CASES])
def test_main_leaves_no_cyclic_garbage(name, argv, expected):
    from mfkit.cli import build_parser

    # The shared parser is built once per process, outside the count.
    build_parser()
    (code, _), garbage = cyclic_garbage(lambda: run_cli(argv_for(argv, CORPUS_DIR)))
    assert garbage == 0
    assert code == expected


def test_exit_codes_all_covered():
    assert {c[2] for c in CASES} == {0, 1, 2, 3, 4}


def test_missing_file_is_parse_error():
    code, out = run_cli(["validate", str(CORPUS_DIR / "does_not_exist.mfw")])
    assert code == 2
    assert "cannot read" in out


def test_non_utf8_file_is_parse_error(tmp_path):
    path = tmp_path / "bad.mfw"
    path.write_bytes(b"\xff\xfe[ring]\n")
    code, out = run_cli(["validate", str(path)])
    assert code == 2
    assert "not UTF-8" in out
    assert out.splitlines()[-1] == "status=error kind=ParseError command=validate exit=2"


def test_invalid_location_reported():
    code, out = run_cli(["validate", str(CORPUS_DIR / "invalid_offdiag.mfw")])
    assert code == 1
    assert "entry (1,0)" in out
    assert "location=psi@phi@(1,0)" in out


def test_field_override_flag():
    code, out = run_cli(
        ["validate", str(CORPUS_DIR / "uv_hypersurface.mfw"), "--field", "fp:7"]
    )
    assert code == 0
    assert "field=fp:7" in out


def test_reversed_window_is_precondition_error():
    code, out = run_cli(
        ["acyclic-window", str(CORPUS_DIR / "uv_hypersurface.mfw"), "A", "--min", "3", "--max", "1"]
    )
    assert code == 3
    assert out.splitlines()[-1] == "status=error kind=EmptyWindow command=acyclic-window exit=3"
    assert "Traceback" not in out


def test_nonzero_homology_trailer(monkeypatch):
    # A validated tower is always acyclic, so no golden reaches this verdict.
    def with_homology(c, d_min, d_max, budget):
        report = graded_acyclicity_window(c, d_min, d_max, budget=budget)
        row = report.rows[0]
        report.rows[0] = HomologyRow(row.degree, row.position, row.dim_ker + 1, row.dim_im)
        return report

    monkeypatch.setattr(mfkit.cli, "graded_acyclicity_window", with_homology)
    _, argv, _ = next(c for c in CASES if c[0] == "acyclic_a")
    code, out = run_cli(argv_for(argv, CORPUS_DIR))
    golden = (GOLDEN_DIR / "acyclic_a.txt").read_text(encoding="utf-8").splitlines()
    first_row = golden.index("     0        F       0      0        0")
    golden[first_row] = "     0        F       1      0        1"
    golden[-2:] = ["verdict: NONZERO homology on window", "status=failed command=acyclic-window exit=1"]
    assert code == 1
    assert out.splitlines() == golden


def test_nonzero_project_at_include_trailer(monkeypatch):
    # project@include is always zero, so no golden reaches this verdict.
    monkeypatch.setattr(mfkit.cli, "compose_morphisms", lambda project, include: include)
    _, argv, _ = next(c for c in CASES if c[0] == "cone_th")
    code, out = run_cli(argv_for(argv, CORPUS_DIR))
    golden = (GOLDEN_DIR / "cone_th.txt").read_text(encoding="utf-8").splitlines()
    golden[-2:] = ["project@include == 0: FAILED", "status=failed command=cone exit=1"]
    assert code == 1
    assert out.splitlines() == golden


def test_console_entry_point_subprocess():
    # One end-to-end check through the real interpreter.
    result = subprocess.run(
        [sys.executable, "-m", "mfkit.cli", "validate", str(CORPUS_DIR / "uv_hypersurface.mfw")],
        capture_output=True,
        encoding="utf-8",
    )
    assert result.returncode == 0
    assert "mf A: axioms verified" in result.stdout


def test_report_escapes_what_stdout_cannot_encode():
    # bad_field.mfw's report echoes fullwidth digits. A UTF-8 stdout gets
    # the golden bytes; an ASCII one gets them escaped, with the parse
    # error's exit code and trailer and no traceback.
    argv = [sys.executable, "-m", "mfkit.cli", "validate", str(CORPUS_DIR / "bad_field.mfw")]
    golden = (GOLDEN_DIR / "validate_bad_field.txt").read_bytes()
    runs = {}
    for encoding in ("utf-8", "ascii"):
        env = {**os.environ, "PYTHONIOENCODING": encoding}
        runs[encoding] = subprocess.run(argv, capture_output=True, env=env)
    assert runs["utf-8"].stdout == golden
    ascii_run = runs["ascii"]
    assert ascii_run.returncode == 2
    assert ascii_run.stderr == b""
    lines = ascii_run.stdout.decode("ascii").splitlines()
    assert lines[-1] == "status=error kind=ParseError command=validate exit=2"
    assert "'fp:\\uff13\\uff12\\uff10\\uff10\\uff13'" in lines[0]


def test_max_degree_only_on_acyclic_window():
    # Only the window command reads the budget, so only it accepts it.
    with pytest.raises(SystemExit) as exc:
        run_cli(["validate", str(CORPUS_DIR / "uv_hypersurface.mfw"), "--max-degree", "3"])
    assert exc.value.code == 2


# Every case but the two lex 3-quadric bases, which take seconds each.
FUZZ_CASES = [c for c in CASES + FIELD_CASES if c[1][1] != "quadrics_lex.mfw"]
FUZZ_INSERTS = ("\u00b2", "\ufeff", "\x00", "\r\n", "[", "]", "(", ")", "fp:7")


def _mutate(data, text: str) -> str:
    """1-3 random deletions, insertions of FUZZ_INSERTS, or splices (a
    stretch of the text copied over another)."""
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(("delete", "insert", "splice")))
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 20)))
        if kind == "delete":
            text = text[:i] + text[j:]
        elif kind == "insert":
            text = text[:i] + data.draw(st.sampled_from(FUZZ_INSERTS)) + text[i:]
        else:
            k = data.draw(st.integers(0, len(text)))
            text = text[:i] + text[k:k + 20] + text[j:]
    return text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=st.sampled_from(FUZZ_CASES), data=st.data())
def test_mutated_corpus_file_ends_in_its_exit_code(tmp_path_factory, case, data):
    # Whatever the damage to the file, the command ends in an exit code
    # 0-4 and a status line that names it, never in a traceback.
    _, argv, _ = case
    text = (CORPUS_DIR / argv[1]).read_text(encoding="utf-8")
    path = tmp_path_factory.mktemp("fuzz") / argv[1]
    path.write_text(_mutate(data, text), encoding="utf-8", newline="")
    code, out = run_cli([argv[0], str(path), *argv[2:]])
    assert code in range(5)
    last = out.splitlines()[-1]
    assert last.startswith("status=") and last.endswith(f"exit={code}")
