"""Count the physical and code lines of each module of `src/mfkit`.

Usage: python3 scripts/count_lines.py [directory]

Physical lines are the lines of the file. Code lines are the lines that
carry at least one token of Python's `tokenize`, other than comments,
line breaks, indentation and docstrings; a token that spans several
lines, such as a multi-line string that is not a docstring, counts each
of its lines. A docstring is a statement made of one string literal
alone, wherever it stands (module, class, function or attribute). The
script prints one row per module and a total, and exits 0.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# Tokens that may stand right before a statement that starts a line.
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
SKIPPED = STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of `path` that carry code."""
    with path.open("rb") as f:
        # Without comments and blank-line breaks, a docstring's neighbours
        # are the tokens that end the statements around it.
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for k, tok in enumerate(tokens):
        if tok.type in SKIPPED:
            continue
        if (tok.type == tokenize.STRING and tokens[k - 1].type in STATEMENT_START
                and tokens[k + 1].type == tokenize.NEWLINE):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "mfkit"
    rows = []
    for path in sorted(root.glob("*.py")):
        physical = len(path.read_bytes().splitlines())
        rows.append((path.name, physical, code_lines(path)))
    width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
    print(f"{'module':<{width}}  physical  code")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>8}  {code:>4}")
    total_physical = sum(p for _, p, _ in rows)
    total_code = sum(c for _, _, c in rows)
    print(f"{'total':<{width}}  {total_physical:>8}  {total_code:>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
