"""Command line front end.

Every command reads a workbench file, runs one operation, and prints a
deterministic report followed by a machine-readable key=value trailer.
Exit codes: 0 success, 1 verification failed, 2 parse error,
3 mathematical precondition violated, 4 budget exceeded.
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


def _print_matrix(label: str, matrix, out):
    out.append(f"{label}:")
    if matrix.nrows == 0:
        out.append("(empty)")
        return
    out.extend(matrix.format_rows())


def _fmt(tower, p) -> str:
    return format_canonical(p, tower.order)


def cmd_validate(wb: Workbench, args, out: list[str]) -> int:
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
    if failures:
        out.append(f"status=failed command=validate location={first_location} exit=1")
        return EXIT_VERIFICATION
    out.append("status=verified command=validate exit=0")
    return EXIT_OK


def cmd_gb(wb: Workbench, args, out: list[str]) -> int:
    tower = wb.tower
    out.append("mid ideal reduced basis:")
    if tower.mid_basis.polys:
        out.extend(_fmt(tower, g) for g in tower.mid_basis.polys)
    else:
        out.append("(none)")
    out.append("quot ideal reduced basis:")
    out.extend(_fmt(tower, g) for g in tower.quot_basis.polys)
    out.append("status=ok command=gb exit=0")
    return EXIT_OK


def cmd_suspend(wb: Workbench, args, out: list[str]) -> int:
    mf = wb.get_mf(args.name)
    s = suspend(mf)
    out.append(f"suspend {args.name}:")
    _print_matrix("phi", s.phi, out)
    _print_matrix("psi", s.psi, out)
    out.append("axioms: verified")
    out.append("status=verified command=suspend exit=0")
    return EXIT_OK


def cmd_cone(wb: Workbench, args, out: list[str]) -> int:
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
    if not ok:
        out.append("status=failed command=cone exit=1")
        return EXIT_VERIFICATION
    out.append("status=verified command=cone exit=0")
    return EXIT_OK


def cmd_verify_homotopy(wb: Workbench, args, out: list[str]) -> int:
    wb.get_homotopy(args.name)
    out.append(f"homotopy {args.name}: verified")
    out.append("status=verified command=verify-homotopy exit=0")
    return EXIT_OK


def cmd_reduce(wb: Workbench, args, out: list[str]) -> int:
    mf = wb.get_mf(args.name)
    c = reduce_object(mf)
    out.append(f"reduction of {args.name}:")
    _print_matrix("phi_bar", c.phi, out)
    _print_matrix("psi_bar", c.psi, out)
    out.append(f"twist: {twist_of(mf.tower)}")
    out.append("composites zero: ok")
    out.append("status=verified command=reduce exit=0")
    return EXIT_OK


def cmd_transport(wb: Workbench, args, out: list[str]) -> int:
    inp = wb.get_transport(args.name)
    h = transport_nullhomotopy(inp)
    out.append(f"transport {args.name}:")
    _print_matrix("s", h.s, out)
    _print_matrix("t", h.t, out)
    out.append("homotopy to zero: verified")
    out.append("internal identity p@psi1 == s1 - s2 + psi2@q: ok")
    out.append("status=verified command=transport exit=0")
    return EXIT_OK


def cmd_lift(wb: Workbench, args, out: list[str]) -> int:
    inp = wb.get_lift(args.name)
    theta, witness = lift_chain_map(inp)
    out.append(f"lift {args.name}:")
    _print_matrix("f", theta.f, out)
    _print_matrix("g", theta.g, out)
    out.append("morphism: verified")
    _print_matrix("phi_gap_bar", witness.phi_gap_bar, out)
    _print_matrix("psi_gap_bar", witness.psi_gap_bar, out)
    out.append("witness identity over quotient: ok")
    out.append("status=verified command=lift exit=0")
    return EXIT_OK


def cmd_coker(wb: Workbench, args, out: list[str]) -> int:
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
    out.append("status=verified command=coker exit=0")
    return EXIT_OK


def cmd_acyclic_window(wb: Workbench, args, out: list[str]) -> int:
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
        out.extend(report.table_lines())
        out.append("transpose-dual complex:")
        out.extend(report.dual_table_lines())
    if report.all_zero:
        out.append("verdict: acyclic on window")
        out.append("status=verified command=acyclic-window exit=0")
        return EXIT_OK
    out.append("verdict: NONZERO homology on window")
    out.append("status=failed command=acyclic-window exit=1")
    return EXIT_VERIFICATION


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
    try:
        wb = load_workbench(args.file, args.field, args.order)
        code = handler(wb, args, out)
    except MfkitError as exc:
        status, code = next((s, c) for cls, s, c in _ERROR_EXITS if isinstance(exc, cls))
        loc = ""
        if isinstance(exc, VerificationError) and exc.location:
            loc = f" location={exc.location}"
        out.append(f"error: {exc}")
        out.append(
            f"status={status} kind={type(exc).__name__}{loc} command={args.command} exit={code}"
        )
    sys.stdout.write("\n".join(out) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
