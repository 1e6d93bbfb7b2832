"""Workbench file parsing and object resolution."""

import contextlib
import io
import re

import pytest

from mfkit.cli import main
from mfkit.errors import DivisionByZeroInCoefficient, ParseError, UnknownVariable
from mfkit.workbench import Workbench, _split_matrix_rows, load_workbench

MINIMAL = """
[ring]
field = qq
vars = u, v
order = grevlex
gens = u*v
w_coords = 1

[mf A]
phi = [[u]]
psi = [[v]]
"""


class TestMatrixText:
    def test_single_entry(self):
        assert _split_matrix_rows("[[u]]", 1) == [["u"]]

    def test_two_by_two(self):
        assert _split_matrix_rows("[[u, v], [-v, u]]", 1) == [["u", "v"], ["-v", "u"]]

    def test_empty(self):
        assert _split_matrix_rows("[]", 1) == []

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            _split_matrix_rows("[[u], [v]", 1)

    def test_ragged(self):
        with pytest.raises(ParseError):
            _split_matrix_rows("[[u, v], [u]]", 1)


class TestSections:
    def test_minimal_loads(self):
        wb = Workbench(MINIMAL)
        mf = wb.get_mf("A")
        assert mf.rank_f == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            Workbench(MINIMAL + "\n[mf B]\nphi = [[u]]\npsi = [[v]]\nextra = 1\n")

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError):
            Workbench(MINIMAL + "\n[mf B]\nphi = [[u]]\n")

    def test_duplicate_section_rejected(self):
        with pytest.raises(ParseError):
            Workbench(MINIMAL + "\n[mf A]\nphi = [[u]]\npsi = [[v]]\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError):
            Workbench(MINIMAL + "\n[widget W]\nphi = [[u]]\n")

    def test_unresolved_name(self):
        wb = Workbench(MINIMAL)
        with pytest.raises(ParseError):
            wb.get_mf("NOPE")

    def test_unknown_variable_in_matrix(self):
        with pytest.raises(UnknownVariable):
            Workbench(MINIMAL.replace("[[u]]", "[[z]]")).get_mf("A")

    def test_two_ring_sections_rejected(self):
        with pytest.raises(ParseError):
            Workbench(MINIMAL + "\n[ring]\nfield = qq\nvars = u\ngens = u\nw_coords = 1\n")

    @pytest.mark.parametrize("field_name, coords", [("qq", "1/0"), ("fp:7", "1/7")])
    def test_zero_denominator_coordinate_names_its_line(self, field_name, coords):
        text = MINIMAL.replace("field = qq", f"field = {field_name}")
        with pytest.raises(DivisionByZeroInCoefficient, match="^line 7: "):
            Workbench(text.replace("w_coords = 1", f"w_coords = {coords}"))

    @pytest.mark.parametrize("coords", [
        "1_0",          # int() reads 10
        "\u0663",       # Arabic-Indic three: int() reads 3
        "\uff13",       # fullwidth three
        "\u00b2",       # superscript two: int() raises ValueError
        "1/\u0663", "+-1", "1/-2", "1/", "/2", "1 0",
    ])
    def test_coordinates_are_ascii_integers_or_fractions(self, coords):
        with pytest.raises(ParseError, match="^line 7: bad coordinate"):
            Workbench(MINIMAL.replace("w_coords = 1", f"w_coords = {coords}"))

    @pytest.mark.parametrize("coords", ["1" * 5000, "1/" + "1" * 5000])
    def test_a_coordinate_past_the_digit_limit_names_its_line(self, coords):
        with pytest.raises(ParseError, match="^line 7: coordinate of 500[02] characters is too long"):
            Workbench(MINIMAL.replace("w_coords = 1", f"w_coords = {coords}"))

    def test_a_polynomial_literal_past_the_digit_limit_names_its_line(self):
        with pytest.raises(ParseError, match="^line 10: integer of 5000 digits is too long"):
            Workbench(MINIMAL.replace("phi = [[u]]", f"phi = [[{'1' * 5000}*u]]")).get_mf("A")

    @pytest.mark.parametrize("coords, value", [("+1", 1), ("-1", -1), ("2/4", 1 / 2), (" 3 / 4 ", 3 / 4)])
    def test_signed_and_fractional_coordinates(self, coords, value):
        from fractions import Fraction

        bench = Workbench(MINIMAL.replace("w_coords = 1", f"w_coords = {coords}"))
        assert Fraction(*bench.tower.w_coords[0]) == value

    @pytest.mark.parametrize("exponent", ["\u00b2", "\u0663", "\uff13"])
    def test_non_ascii_exponent_names_its_line(self, exponent):
        with pytest.raises(ParseError, match="^line 6: expected exponent"):
            Workbench(MINIMAL.replace("gens = u*v", f"gens = u^{exponent}*v"))

    def test_unknown_order_names_its_line(self):
        with pytest.raises(ParseError, match="^line 5: unknown order 'deglex'"):
            Workbench(MINIMAL.replace("order = grevlex", "order = deglex"))

    @pytest.mark.parametrize("field_name, message", [
        ("fp:4", "modulus must be a prime"), ("zz", "unknown field"),
    ])
    def test_bad_field_override_names_no_line(self, field_name, message):
        # Line 3 of the file reads `field = qq`; the bad name came from
        # the override, so no file line is to blame.
        with pytest.raises(ParseError, match=f"^{message}"):
            Workbench(MINIMAL, field_override=field_name)

    def test_bad_field_in_file_names_its_line(self):
        with pytest.raises(ParseError, match="^line 3: modulus must be a prime"):
            Workbench(MINIMAL.replace("field = qq", "field = fp:4"))

    @pytest.mark.parametrize("spec", [
        "fp:\uff13\uff12\uff10\uff10\uff13",  # fullwidth 32003
        "fp:3_2003",
        "fp:+7",
        "fp: 7",
        "fp:\u0667",                            # Arabic-Indic seven
    ])
    def test_prime_field_spec_takes_ascii_digits_only(self, spec, corpus_dir):
        # int() reads each of these prime parts, as 32003 or 7.
        message = f"bad prime field spec: {spec!r}"
        with pytest.raises(ParseError, match=f"^line 3: {re.escape(message)}"):
            Workbench(MINIMAL.replace("field = qq", f"field = {spec}"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["validate", str(corpus_dir / "uv_hypersurface.mfw"), "--field", spec])
        assert (code, out.getvalue().splitlines()[0]) == (2, f"error: {message}")

    def test_field_override(self):
        wb = Workbench(MINIMAL, field_override="fp:5")
        assert wb.tower.ring.field.name == "fp:5"

    def test_morphism_and_homotopy_resolution(self):
        text = MINIMAL + """
[morphism th]
source = A
target = A
f = [[u*v]]
g = [[u*v]]

[homotopy h]
theta = th
s = [[v]]
t = [[0]]
"""
        wb = Workbench(text)
        h = wb.get_homotopy("h")
        assert h.theta_prime.f.is_zero()


    def test_morphism_named_zero_is_reserved(self):
        # theta_prime = zero always means the zero morphism, so a section
        # of that name could never be reached.
        text = MINIMAL + """
[morphism zero]
source = A
target = A
f = [[u*v]]
g = [[u*v]]
"""
        with pytest.raises(ParseError, match="^line 13: 'zero' is reserved"):
            Workbench(text)


class TestCorpusFiles:
    def test_all_valid_corpus_files_load(self, corpus_dir):
        for name in ("uv_hypersurface", "sum_of_squares", "tower_squares", "tower_cusp"):
            wb = load_workbench(str(corpus_dir / f"{name}.mfw"))
            for mf_name in wb.names["mf"]:
                wb.get_mf(mf_name)
            for m_name in wb.names["morphism"]:
                wb.get_morphism(m_name)
            for h_name in wb.names["homotopy"]:
                wb.get_homotopy(h_name)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_workbench("/nonexistent/path.mfw")
