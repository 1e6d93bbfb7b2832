"""The corpus command matrix: every subcommand and every exit code.

Shared between the golden-file tests and the regeneration script.
Paths are relative to the repository's corpus directory.
"""

CASES = [
    # (golden name, argv after the corpus dir is prefixed, expected exit code)
    ("validate_uv", ["validate", "uv_hypersurface.mfw"], 0),
    ("validate_sum_of_squares", ["validate", "sum_of_squares.mfw"], 0),
    ("validate_tower_squares", ["validate", "tower_squares.mfw"], 0),
    ("validate_tower_cusp", ["validate", "tower_cusp.mfw"], 0),
    ("validate_invalid_axiom", ["validate", "invalid_axiom.mfw"], 1),
    ("validate_invalid_sign", ["validate", "invalid_sign.mfw"], 1),
    ("validate_invalid_offdiag", ["validate", "invalid_offdiag.mfw"], 1),
    ("validate_bad_syntax", ["validate", "bad_syntax.mfw"], 2),
    ("gb_tower_squares", ["gb", "tower_squares.mfw"], 0),
    ("gb_tower_cusp", ["gb", "tower_cusp.mfw"], 0),
    ("suspend_a", ["suspend", "uv_hypersurface.mfw", "A"], 0),
    ("suspend_b", ["suspend", "sum_of_squares.mfw", "B"], 0),
    ("cone_th", ["cone", "uv_hypersurface.mfw", "th"], 0),
    ("cone_idb", ["cone", "sum_of_squares.mfw", "idB"], 0),
    ("verify_homotopy_h", ["verify-homotopy", "uv_hypersurface.mfw", "h"], 0),
    ("verify_homotopy_hc", ["verify-homotopy", "tower_squares.mfw", "hC"], 0),
    ("reduce_a", ["reduce", "uv_hypersurface.mfw", "A"], 0),
    ("reduce_c", ["reduce", "tower_squares.mfw", "C"], 0),
    ("reduce_d", ["reduce", "tower_cusp.mfw", "D"], 0),
    ("transport_tr", ["transport", "uv_hypersurface.mfw", "tr"], 0),
    ("transport_trb", ["transport", "sum_of_squares.mfw", "trB"], 0),
    ("transport_trc", ["transport", "tower_squares.mfw", "trC"], 0),
    ("transport_broken", ["transport", "bad_transport.mfw", "broken"], 3),
    ("lift_l", ["lift", "uv_hypersurface.mfw", "L"], 0),
    ("lift_lb", ["lift", "sum_of_squares.mfw", "LB"], 0),
    ("lift_ld", ["lift", "tower_cusp.mfw", "LD"], 0),
    ("coker_a", ["coker", "uv_hypersurface.mfw", "A"], 0),
    ("coker_c", ["coker", "tower_squares.mfw", "C"], 0),
    ("acyclic_a", ["acyclic-window", "uv_hypersurface.mfw", "A", "--min", "0", "--max", "4"], 0),
    ("acyclic_a_csv", ["acyclic-window", "uv_hypersurface.mfw", "A", "--min", "0", "--max", "4", "--csv"], 0),
    ("acyclic_b", ["acyclic-window", "sum_of_squares.mfw", "B", "--min", "0", "--max", "6"], 0),
    ("acyclic_c", ["acyclic-window", "tower_squares.mfw", "C", "--min", "0", "--max", "6"], 0),
    ("acyclic_d_inhomogeneous", ["acyclic-window", "tower_cusp.mfw", "D", "--min", "0", "--max", "4"], 3),
    ("acyclic_budget", ["acyclic-window", "uv_hypersurface.mfw", "A", "--min", "0", "--max", "50", "--max-degree", "10"], 4),
]

# Coefficients beyond the integers: a corpus file with a/b coefficients
# over QQ, and prime-field overrides. Kept out of CASES, which the
# benchmark's cli workload runs in full.
FIELD_CASES = [
    ("validate_fractional", ["validate", "fractional.mfw"], 0),
    ("gb_fractional", ["gb", "fractional.mfw"], 0),
    ("transport_fractional", ["transport", "fractional.mfw", "trF"], 0),
    ("lift_fractional", ["lift", "fractional.mfw", "LF"], 0),
    ("acyclic_fractional", ["acyclic-window", "fractional.mfw", "F", "--min", "0", "--max", "4"], 0),
    ("gb_tower_cusp_fp32003", ["gb", "tower_cusp.mfw", "--field", "fp:32003"], 0),
    ("lift_lb_fp32003", ["lift", "sum_of_squares.mfw", "LB", "--field", "fp:32003"], 0),
    ("gb_fractional_fp32003", ["gb", "fractional.mfw", "--field", "fp:32003"], 0),
    ("lift_fractional_fp32003", ["lift", "fractional.mfw", "LF", "--field", "fp:32003"], 0),
    ("acyclic_fractional_fp32003",
     ["acyclic-window", "fractional.mfw", "F", "--min", "0", "--max", "3", "--field", "fp:32003"], 0),
    # Buchberger under lex on a generated 3-quadric file, over its own QQ
    # and over fp:32003; the fp:32003 golden is proved to be the reduced
    # basis by test_groebner.py.
    ("gb_quadrics_lex", ["gb", "quadrics_lex.mfw"], 0),
    ("gb_quadrics_lex_fp32003", ["gb", "quadrics_lex.mfw", "--field", "fp:32003"], 0),
    # The first failing entry of a morphism square and of a homotopy
    # identity, pinned by location.
    ("cone_bad", ["cone", "bad_identities.mfw", "bad"], 1),
    ("verify_homotopy_badh", ["verify-homotopy", "bad_identities.mfw", "badh"], 1),
    # A monomial past the packed range (total degree above 32767) is a
    # BudgetExceeded at parse time, never a wrapped exponent.
    ("validate_huge_power", ["validate", "huge_power.mfw"], 4),
    # Literals are ASCII digits: a superscript exponent is a ParseError
    # naming its line (exit 2), not an uncaught ValueError.
    ("validate_bad_digits", ["validate", "bad_digits.mfw"], 2),
    # So is the prime of a field spec: fullwidth digits in `field =` are a
    # ParseError naming the field line.
    ("validate_bad_field", ["validate", "bad_field.mfw"], 2),
    # Parentheses nested past the parser's bound are a ParseError naming
    # their line (exit 2), after a run of 5000 signs parsed in a loop.
    ("validate_deep_nesting", ["validate", "deep_nesting.mfw"], 2),
    # An integer literal past the interpreter's 4300-digit limit on
    # decimal text is a ParseError naming its line (exit 2).
    ("validate_long_literal", ["validate", "long_literal.mfw"], 2),
    # A verified coefficient too long to print is a BudgetExceeded
    # (exit 4) when the report prints it.
    ("suspend_huge_coefficient", ["suspend", "huge_coefficient.mfw", "A"], 4),
    # A window wider than the degree budget is a BudgetExceeded (exit 4)
    # before any graded piece is visited.
    ("acyclic_wide_window",
     ["acyclic-window", "uv_hypersurface.mfw", "A", "--min", "-1000000000", "--max", "0"], 4),
]


def argv_for(case_argv: list[str], corpus_dir) -> list[str]:
    """Prefix the file argument (always position 1) with the corpus dir."""
    argv = list(case_argv)
    argv[1] = str(corpus_dir / argv[1])
    return argv
