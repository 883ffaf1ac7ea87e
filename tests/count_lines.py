"""Count the lines of each module of src/gmmgen by kind: code, docstring,
comment and blank.

A docstring line lies in a string that is a whole statement, a comment
line holds a comment and nothing else, a blank line only whitespace, and
every other line is code; a line with code on it is code.  Each line
counts once, so a file's four counts sum to its line count.  This script
is not collected by pytest.  Run it from the repository root:

    python tests/count_lines.py [FILE ...]

It prints one row per module and a total row.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")  # a line takes the first kind that fits
# Tokens that only lay out statements; a string after one of them starts a statement.
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def count(text: str) -> dict:
    """{kind: line count} of Python source text, over KINDS."""
    ranks = [len(KINDS) - 1] * len(text.splitlines())  # every line blank until a token lands
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(text).readline)
              if tok.type not in (tokenize.NL, tokenize.ENDMARKER)]
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        kind = "code"
        if tok.type == tokenize.COMMENT:
            kind = "comment"
        elif (tok.type == tokenize.STRING and (i == 0 or tokens[i - 1].type in _LAYOUT)
              and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.COMMENT)):
            kind = "docstring"
        for line in range(tok.start[0] - 1, tok.end[0]):
            ranks[line] = min(ranks[line], KINDS.index(kind))
    return {kind: ranks.count(rank) for rank, kind in enumerate(KINDS)}


def row(name: str, values) -> str:
    return f"{name:<16}" + "".join(f"{value:>10}" for value in values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="Python files (default: every module of src/gmmgen)")
    args = parser.parse_args(argv)
    files = args.files or sorted((ROOT / "src" / "gmmgen").glob("*.py"))
    print(row("module", (*KINDS, "lines")))
    total = dict.fromkeys(KINDS, 0)
    for path in files:
        counts = count(path.read_text(encoding="utf-8"))
        total = {kind: total[kind] + counts[kind] for kind in KINDS}
        print(row(path.name, (*counts.values(), sum(counts.values()))))
    print(row("total", (*total.values(), sum(total.values()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
