"""Command line front end.

Every command reads a workbench file, runs one operation, appends a
deterministic report and returns its verdict: a status word ("verified",
"ok" or "failed") and a location, set only by `validate`. `main` writes
the one machine-readable key=value trailer, for a verdict or an error.
Exit codes: 0 success, 1 verification failed, 2 parse error,
3 mathematical precondition violated, 4 budget exceeded. A character
of the report that stdout's encoding cannot represent (one echoed from
the input) is written as a backslash escape, so the exit code holds
whatever the locale.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import (
    BudgetExceeded,
    MfkitError,
    ParseError,
    VerificationError,
)
from .mfcat import compose_morphisms, coker_presentation, mapping_cone, suspend
from .periodic import (
    DEFAULT_BUDGET,
    graded_acyclicity_window,
    lift_chain_map,
    reduce_object,
    transport_nullhomotopy,
    twist_of,
)
from .poly import format_canonical
from .workbench import Workbench, load_workbench

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4

# (exception class, status word, exit code); the first row that matches
# wins. Preconditions are the MfkitError row.
_ERROR_EXITS = (
    (ParseError, "error", EXIT_PARSE),
    (BudgetExceeded, "error", EXIT_BUDGET),
    (VerificationError, "failed", EXIT_VERIFICATION),
    (MfkitError, "error", EXIT_PRECONDITION),
)

# What a command returns: its status word and, for `validate`, the
# location of the first failure.
Verdict = tuple[str, str | None]


def _print_matrix(label: str, matrix, out):
    out.append(f"{label}:")
    if matrix.nrows == 0:
        out.append("(empty)")
        return
    out.extend(matrix.format_rows())


def _fmt(tower, p) -> str:
    return format_canonical(p, tower.order)


def cmd_validate(wb: Workbench, args, out: list[str]) -> Verdict:
    tower = wb.tower
    ring = tower.ring
    out.append(
        f"ring: vars={','.join(ring.vars)} field={ring.field.name}"
        f" order={tower.order.kind}"
    )
    out.append("sequence: " + "; ".join(_fmt(tower, g) for g in tower.seq_gens))
    out.append(f"w = {_fmt(tower, tower.w)}")
    out.extend(tower.validation.lines())
    failures = 0
    first_location = None
    for name in wb.names["mf"]:
        try:
            mf = wb.get_mf(name)
        except VerificationError as exc:
            failures += 1
            out.append(f"mf {name}: FAILED: {exc}")
            if first_location is None:
                first_location = exc.location
            continue
        out.append(f"mf {name}: axioms verified (rank {mf.rank_f})")
    return ("failed", first_location) if failures else ("verified", None)


def cmd_gb(wb: Workbench, args, out: list[str]) -> Verdict:
    tower = wb.tower
    out.append("mid ideal reduced basis:")
    if tower.mid_basis.polys:
        out.extend(_fmt(tower, g) for g in tower.mid_basis.polys)
    else:
        out.append("(none)")
    out.append("quot ideal reduced basis:")
    out.extend(_fmt(tower, g) for g in tower.quot_basis.polys)
    return "ok", None


def cmd_suspend(wb: Workbench, args, out: list[str]) -> Verdict:
    mf = wb.get_mf(args.name)
    s = suspend(mf)
    out.append(f"suspend {args.name}:")
    _print_matrix("phi", s.phi, out)
    _print_matrix("psi", s.psi, out)
    out.append("axioms: verified")
    return "verified", None


def cmd_cone(wb: Workbench, args, out: list[str]) -> Verdict:
    theta = wb.get_morphism(args.name)
    cone, include, project = mapping_cone(theta)
    out.append(f"cone of {args.name}:")
    _print_matrix("phi", cone.phi, out)
    _print_matrix("psi", cone.psi, out)
    out.append("axioms: verified")
    out.append("include morphism: verified")
    out.append("project morphism: verified")
    ok = compose_morphisms(project, include).is_zero()
    out.append(f"project@include == 0: {'ok' if ok else 'FAILED'}")
    return ("verified" if ok else "failed"), None


def cmd_verify_homotopy(wb: Workbench, args, out: list[str]) -> Verdict:
    wb.get_homotopy(args.name)
    out.append(f"homotopy {args.name}: verified")
    return "verified", None


def cmd_reduce(wb: Workbench, args, out: list[str]) -> Verdict:
    mf = wb.get_mf(args.name)
    c = reduce_object(mf)
    out.append(f"reduction of {args.name}:")
    _print_matrix("phi_bar", c.phi, out)
    _print_matrix("psi_bar", c.psi, out)
    out.append(f"twist: {twist_of(mf.tower)}")
    out.append("composites zero: ok")
    return "verified", None


def cmd_transport(wb: Workbench, args, out: list[str]) -> Verdict:
    inp = wb.get_transport(args.name)
    h = transport_nullhomotopy(inp)
    out.append(f"transport {args.name}:")
    _print_matrix("s", h.s, out)
    _print_matrix("t", h.t, out)
    out.append("homotopy to zero: verified")
    out.append("internal identity p@psi1 == s1 - s2 + psi2@q: ok")
    return "verified", None


def cmd_lift(wb: Workbench, args, out: list[str]) -> Verdict:
    inp = wb.get_lift(args.name)
    theta, witness = lift_chain_map(inp)
    out.append(f"lift {args.name}:")
    _print_matrix("f", theta.f, out)
    _print_matrix("g", theta.g, out)
    out.append("morphism: verified")
    _print_matrix("phi_gap_bar", witness.phi_gap_bar, out)
    _print_matrix("psi_gap_bar", witness.psi_gap_bar, out)
    out.append("witness identity over quotient: ok")
    return "verified", None


def cmd_coker(wb: Workbench, args, out: list[str]) -> Verdict:
    mf = wb.get_mf(args.name)
    pres = coker_presentation(mf)
    tower = wb.tower
    out.append(f"cokernel presentation of {args.name}:")
    _print_matrix("presentation over quotient", pres.presentation, out)
    out.append("annihilation certificate: ok (w*1 == psi@phi)")
    out.append(
        f"injectivity certificate: det(phi)*det(psi) = {_fmt(tower, pres.det_product)}"
        f" = +w^{pres.w_power}"
    )
    return "verified", None


def cmd_acyclic_window(wb: Workbench, args, out: list[str]) -> Verdict:
    mf = wb.get_mf(args.name)
    c = reduce_object(mf)
    report = graded_acyclicity_window(c, args.min, args.max, budget=args.max_degree)
    out.append(f"acyclicity window for {args.name}, degrees {args.min}..{args.max}:")
    if args.csv:
        out.append("degree,position,dim_ker,dim_im,homology")
        out.extend(r.csv() for r in report.rows)
        out.append("transpose-dual complex:")
        out.append("degree,position,dim_ker,dim_im,homology")
        out.extend(r.csv() for r in report.dual_rows)
    else:
        out.extend(report.table(report.rows))
        out.append("transpose-dual complex:")
        out.extend(report.table(report.dual_rows))
    acyclic = report.all_zero
    out.append("verdict: acyclic on window" if acyclic else "verdict: NONZERO homology on window")
    return ("verified" if acyclic else "failed"), None


_COMMANDS = {
    "validate": (cmd_validate, False),
    "gb": (cmd_gb, False),
    "suspend": (cmd_suspend, True),
    "cone": (cmd_cone, True),
    "verify-homotopy": (cmd_verify_homotopy, True),
    "reduce": (cmd_reduce, True),
    "transport": (cmd_transport, True),
    "lift": (cmd_lift, True),
    "coker": (cmd_coker, True),
    "acyclic-window": (cmd_acyclic_window, True),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every
    `main` call in the process; parsing keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="mfkit",
        description="Exact workbench for matrix factorizations over polynomial quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, takes_name) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("file", help="workbench file")
        if takes_name:
            p.add_argument("name", help="section name to operate on")
        p.add_argument("--field", default=None,
                       help="override the file's field (qq or fp:<p>)")
        p.add_argument("--order", choices=["lex", "grevlex"], default=None,
                       help="override the file's monomial order")
        if name == "acyclic-window":
            p.add_argument("--max-degree", type=int, default=DEFAULT_BUDGET,
                           help="budget for the window's top graded degree and its span")
            p.add_argument("--min", type=int, required=True, help="window start degree")
            p.add_argument("--max", type=int, required=True, help="window end degree")
            p.add_argument("--csv", action="store_true",
                           help="machine-readable rows instead of the aligned table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    out: list[str] = []
    location = None
    try:
        wb = load_workbench(args.file, args.field, args.order)
        status, location = handler(wb, args, out)
        code = EXIT_VERIFICATION if status == "failed" else EXIT_OK
        fields = [f"command={args.command}"]
    except MfkitError as exc:
        status, code = next((s, c) for cls, s, c in _ERROR_EXITS if isinstance(exc, cls))
        if isinstance(exc, VerificationError):
            location = exc.location
        out.append(f"error: {exc}")
        fields = [f"kind={type(exc).__name__}", f"command={args.command}"]
    # A location follows the first field: the command of a verdict, the
    # kind of an error.
    if location:
        fields.insert(1, f"location={location}")
    out.append(" ".join([f"status={status}", *fields, f"exit={code}"]))
    text = "\n".join(out) + "\n"
    # An echoed input character that stdout cannot encode is written as a
    # backslash escape; a stream without an encoding (StringIO) takes the
    # text as it is.
    encoding = getattr(sys.stdout, "encoding", None)
    if encoding:
        text = text.encode(encoding, "backslashreplace").decode(encoding)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
