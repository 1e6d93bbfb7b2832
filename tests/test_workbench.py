"""Workbench file parsing and object resolution."""

import pytest

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
