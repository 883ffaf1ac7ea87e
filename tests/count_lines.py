"""Count the lines of each module of src/gmmgen by kind: code, docstring,
comment and blank.

A docstring line lies in a string that is a whole statement, a comment
line holds a comment and nothing else, a blank line only whitespace, and
every other line is code; a line with code on it is code.  Each line
counts once, so a file's four counts sum to its line count.  This script
is not collected by pytest.  Run it from the repository root:

    python tests/count_lines.py [--rev REV] [FILE ...]

It prints one row per module and a total row.  With --rev, each module
and the total also get a "before" row, the file as `git show REV:<path>`
holds it (zeros where REV has no such file), and a "change" row, the
current counts minus those; a module REV holds that is gone gets rows too.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ROOT / "src" / "gmmgen"
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


def row(name: str, counts: dict, sign: str = "") -> str:
    """One table row: name, then each kind's count and their sum, signed if sign is "+"."""
    values = (*counts.values(), sum(counts.values()))
    return f"{name:<16}" + "".join(f"{value:>{sign}10}" for value in values)


def git(*args: str) -> str | None:
    """The output of a git command run in the repository, or None if it fails."""
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, encoding="utf-8")
    return done.stdout if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="Python files (default: every module of src/gmmgen)")
    parser.add_argument("--rev", help="also count each file as this git revision holds it")
    args = parser.parse_args(argv)
    files = [path.resolve() for path in args.files] or sorted(MODULES.glob("*.py"))
    if args.rev is not None:
        if git("rev-parse", "--verify", "--quiet", f"{args.rev}^{{commit}}") is None:
            parser.error(f"not a git revision: {args.rev}")
        if not args.files:
            held = git("ls-tree", "--name-only", args.rev, f"{MODULES.relative_to(ROOT)}/")
            files = sorted({*files, *(ROOT / name for name in held.split() if name.endswith(".py"))})
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in (*KINDS, "lines")))
    zero = dict.fromkeys(KINDS, 0)
    total, before_total = zero, zero
    for path in files:
        counts = count(path.read_text(encoding="utf-8")) if path.exists() else zero
        total = {kind: total[kind] + counts[kind] for kind in KINDS}
        print(row(path.name, counts))
        if args.rev is not None:
            before = count(git("show", f"{args.rev}:{path.relative_to(ROOT).as_posix()}") or "")
            before_total = {kind: before_total[kind] + before[kind] for kind in KINDS}
            print(row("  before", before))
            print(row("  change", {kind: counts[kind] - before[kind] for kind in KINDS}, "+"))
    print(row("total", total))
    if args.rev is not None:
        print(row("  before", before_total))
        print(row("  change", {kind: total[kind] - before_total[kind] for kind in KINDS}, "+"))
    return 0

if __name__ == "__main__":
    sys.exit(main())
