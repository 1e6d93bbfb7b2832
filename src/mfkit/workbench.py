"""Workbench files: a small text format describing a tower and named
matrix factorizations, morphisms, homotopies, and lifting inputs.

Format (line oriented, '#' starts a comment line, blank lines ignored)::

    [ring]
    field = qq              # or fp:<prime>
    vars = u, v
    order = grevlex         # or lex; precedence is declaration order
    gens = u*v              # regular sequence, comma separated
    w_coords = 1            # coordinates of w in the span of gens

    [mf A]
    phi = [[u]]
    psi = [[v]]

    [morphism th]
    source = A
    target = A
    f = [[u*v]]
    g = [[u*v]]

    [homotopy h]
    theta = th
    theta_prime = zero      # optional, defaults to zero (a reserved name)
    s = [[v]]
    t = [[0]]

    [transport tr]
    theta = th
    s1 = [[v]]
    t = [[0]]
    s2 = [[v]]

    [lift L]
    source = A
    target = A
    g1 = [[1]]
    f0 = [[1]]
    g0 = [[1]]

Section keys are exactly those documented; unknown keys, unresolved
names, and malformed matrices are parse errors. `zero` is a reserved
morphism name, so a `[morphism zero]` section is a parse error too.
A polynomial with an exponent or total degree past the packed monomial
range (`mfkit.poly.MAX_DEGREE`) is a BudgetExceeded naming its line.
Each `w_coords` entry is an integer `n` or a fraction `n/d`: n an
optional sign and ASCII digits 0-9, d ASCII digits; any other entry,
as well as a non-ASCII digit in a polynomial, is a parse error naming
its line. So is a literal longer than the interpreter converts from
decimal text, and a polynomial with parentheses nested deeper than
`mfkit.poly.MAX_NESTING`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import BudgetExceeded, DivisionByZeroInCoefficient, ParseError
from .fields import field_from_name
from .mfcat import MatrixFactorization, MfHomotopy, MfMorphism, zero_morphism
from .periodic import ChainLiftInput, HomotopyTransportInput
from .poly import MonomialOrder, PolyRing
from .tower import Level, RingMatrix, RingTower, build_tower

# A w_coords entry: an optional sign and ASCII digits, optionally over
# ASCII digits. `int` alone would also take other Unicode digits and "_".
_COORD_RE = re.compile(r"([+-]?[0-9]+)[ \t]*(?:/[ \t]*([0-9]+))?")

_SECTION_KEYS = {
    "ring": {"field", "vars", "order", "gens", "w_coords"},
    "mf": {"phi", "psi"},
    "morphism": {"source", "target", "f", "g"},
    "homotopy": {"theta", "theta_prime", "s", "t"},
    "transport": {"theta", "s1", "t", "s2"},
    "lift": {"source", "target", "g1", "f0", "g0"},
}

_OPTIONAL_KEYS = {("ring", "order"), ("homotopy", "theta_prime")}

_REQUIRED_KEYS = {
    kind: {k for k in keys if (kind, k) not in _OPTIONAL_KEYS} for kind, keys in _SECTION_KEYS.items()
}


@dataclass
class RawSection:
    kind: str
    name: str
    line: int
    entries: dict[str, tuple[str, int]] = field(default_factory=dict)

    def get(self, key: str) -> str:
        return self.entries[key][0]

    def get_optional(self, key: str, default: str | None = None) -> str | None:
        if key in self.entries:
            return self.entries[key][0]
        return default


def _split_matrix_rows(text: str, line: int) -> list[list[str]]:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError(f"line {line}: matrix must be bracketed, got {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return []
    pieces = []
    depth = 0
    cur = []
    for ch in inner:
        if ch == "[":
            depth += 1
            cur.append(ch)
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"line {line}: unbalanced brackets in matrix")
            cur.append(ch)
        elif ch == "," and depth == 0:
            pieces.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"line {line}: unbalanced brackets in matrix")
    pieces.append("".join(cur))
    rows = []
    for piece in pieces:
        piece = piece.strip()
        if not (piece.startswith("[") and piece.endswith("]")):
            raise ParseError(f"line {line}: matrix row must be bracketed, got {piece!r}")
        row_inner = piece[1:-1].strip()
        if not row_inner:
            rows.append([])
        else:
            rows.append([cell.strip() for cell in row_inner.split(",")])
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ParseError(f"line {line}: ragged matrix rows")
    return rows


def parse_sections(text: str) -> list[RawSection]:
    sections: list[RawSection] = []
    current: RawSection | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {lineno}: malformed section header {line!r}")
            header = line[1:-1].strip()
            parts = header.split()
            if len(parts) == 1:
                kind, name = parts[0], ""
            elif len(parts) == 2:
                kind, name = parts
            else:
                raise ParseError(f"line {lineno}: malformed section header {line!r}")
            if kind not in _SECTION_KEYS:
                raise ParseError(f"line {lineno}: unknown section kind {kind!r}")
            if kind != "ring" and not name:
                raise ParseError(f"line {lineno}: section [{kind}] needs a name")
            if kind == "ring" and name:
                raise ParseError(f"line {lineno}: [ring] takes no name")
            if kind == "morphism" and name == "zero":
                raise ParseError(f"line {lineno}: 'zero' is reserved for the zero morphism")
            current = RawSection(kind, name, lineno)
            sections.append(current)
            continue
        if current is None:
            raise ParseError(f"line {lineno}: content before any section header")
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SECTION_KEYS[current.kind]:
            raise ParseError(
                f"line {lineno}: unknown key {key!r} in [{current.kind}] section"
            )
        if key in current.entries:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        current.entries[key] = (value, lineno)
    for sec in sections:
        missing = _REQUIRED_KEYS[sec.kind] - set(sec.entries)
        if missing:
            raise ParseError(
                f"line {sec.line}: [{sec.kind} {sec.name}] missing keys: "
                + ", ".join(sorted(missing))
            )
    return sections


class Workbench:
    """A parsed workbench file with lazy, cached object construction."""

    def __init__(self, text: str, field_override: str | None = None,
                 order_override: str | None = None):
        sections = parse_sections(text)
        rings = [s for s in sections if s.kind == "ring"]
        if len(rings) != 1:
            raise ParseError(f"expected exactly one [ring] section, found {len(rings)}")
        self._sections: dict[tuple[str, str], RawSection] = {}
        self.names: dict[str, list[str]] = {k: [] for k in _SECTION_KEYS if k != "ring"}
        for s in sections:
            if s.kind == "ring":
                continue
            key = (s.kind, s.name)
            if key in self._sections:
                raise ParseError(f"line {s.line}: duplicate [{s.kind} {s.name}]")
            self._sections[key] = s
            self.names[s.kind].append(s.name)
        self.tower = self._build_tower(rings[0], field_override, order_override)
        self._mf_cache: dict[str, MatrixFactorization] = {}
        self._morphism_cache: dict[str, MfMorphism] = {}

    def _build_tower(self, sec: RawSection, field_override, order_override) -> RingTower:
        field_name = field_override or sec.get("field")
        try:
            fld = field_from_name(field_name)
        except ValueError as exc:
            msg = str(exc) if field_override else f"line {sec.entries['field'][1]}: {exc}"
            raise ParseError(msg) from None
        var_names = tuple(v.strip() for v in sec.get("vars").split(",") if v.strip())
        try:
            ring = PolyRing(var_names, fld)
        except ValueError as exc:
            raise ParseError(f"line {sec.entries['vars'][1]}: {exc}") from None
        order_name = order_override or sec.get_optional("order", "grevlex")
        if order_name == "lex":
            order = MonomialOrder.lex(ring.nvars)
        elif order_name == "grevlex":
            order = MonomialOrder.grevlex(ring.nvars)
        else:
            msg = f"unknown order {order_name!r} (expected lex or grevlex)"
            if not order_override:
                msg = f"line {sec.entries['order'][1]}: {msg}"
            raise ParseError(msg)
        gens_text, gens_line = sec.entries["gens"]
        gens = [self._parse_poly(ring, g, gens_line) for g in gens_text.split(",")]
        coords_text, coords_line = sec.entries["w_coords"]
        coords = []
        for c in coords_text.split(","):
            c = c.strip()
            match = _COORD_RE.fullmatch(c)
            if match is None:
                raise ParseError(f"line {coords_line}: bad coordinate {c!r}")
            num, den = match.groups()
            try:
                if den is None:
                    coords.append(fld.from_int(int(num)))
                else:
                    coords.append(fld.ratio(int(num), int(den)))
            except DivisionByZeroInCoefficient as exc:
                raise DivisionByZeroInCoefficient(f"line {coords_line}: {exc}") from None
            except ValueError:  # past the interpreter's text-to-int digit limit
                raise ParseError(
                    f"line {coords_line}: coordinate of {len(c)} characters is too long"
                ) from None
        return build_tower(ring, gens, coords, order)

    @staticmethod
    def _parse_poly(ring: PolyRing, text: str, line: int):
        try:
            return ring.parse(text)
        except (ParseError, BudgetExceeded) as exc:
            raise type(exc)(f"line {line}: {exc}") from None

    def _section(self, kind: str, name: str) -> RawSection:
        sec = self._sections.get((kind, name))
        if sec is None:
            raise ParseError(f"no [{kind} {name}] section in file")
        return sec

    def _matrix(self, sec: RawSection, key: str) -> RingMatrix:
        text, line = sec.entries[key]
        rows = _split_matrix_rows(text, line)
        poly_rows = [
            [self._parse_poly(self.tower.ring, cell, line) for cell in row]
            for row in rows
        ]
        return RingMatrix(self.tower, Level.MID, poly_rows)

    def get_mf(self, name: str) -> MatrixFactorization:
        if name not in self._mf_cache:
            sec = self._section("mf", name)
            self._mf_cache[name] = MatrixFactorization(
                self._matrix(sec, "phi"), self._matrix(sec, "psi")
            )
        return self._mf_cache[name]

    def get_morphism(self, name: str) -> MfMorphism:
        if name not in self._morphism_cache:
            sec = self._section("morphism", name)
            source = self.get_mf(sec.get("source"))
            target = self.get_mf(sec.get("target"))
            self._morphism_cache[name] = MfMorphism(
                source, target, self._matrix(sec, "f"), self._matrix(sec, "g")
            )
        return self._morphism_cache[name]

    def get_homotopy(self, name: str) -> MfHomotopy:
        sec = self._section("homotopy", name)
        theta = self.get_morphism(sec.get("theta"))
        prime_name = sec.get_optional("theta_prime", "zero")
        if prime_name == "zero":
            theta_prime = zero_morphism(theta.source, theta.target)
        else:
            theta_prime = self.get_morphism(prime_name)
        return MfHomotopy(theta, theta_prime, self._matrix(sec, "s"), self._matrix(sec, "t"))

    def get_transport(self, name: str) -> HomotopyTransportInput:
        sec = self._section("transport", name)
        theta = self.get_morphism(sec.get("theta"))
        return HomotopyTransportInput(
            theta, self._matrix(sec, "s1"), self._matrix(sec, "t"), self._matrix(sec, "s2")
        )

    def get_lift(self, name: str) -> ChainLiftInput:
        sec = self._section("lift", name)
        source = self.get_mf(sec.get("source"))
        target = self.get_mf(sec.get("target"))
        return ChainLiftInput(
            source, target,
            self._matrix(sec, "g1"), self._matrix(sec, "f0"), self._matrix(sec, "g0"),
        )


def load_workbench(path: str, field_override: str | None = None,
                   order_override: str | None = None) -> Workbench:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text", exc.start) from None
    return Workbench(text, field_override, order_override)
