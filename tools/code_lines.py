"""Count the code lines of the package source.

    python tools/code_lines.py [PATH ...]

Prints one ``count path`` line per Python file under each PATH (default:
the ``src`` directory of this checkout), sorted by path, and then
``total: K``.  A code line is a line that holds at least one token of code,
read with ``tokenize``: blank lines, comment lines and docstring lines (a
statement that is a lone string literal) do not count, and a token that
spans lines counts each line it spans.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# tokens that hold no code of their own; comments and non-logical line ends
# are dropped first, so the token before a statement's first is one of these
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """The number of code lines of one Python source file."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, token in enumerate(tokens):
        if token.type in _LAYOUT:
            continue
        # tokens[0] is ENCODING, so a code token has one before it
        starts_statement = tokens[i - 1].type in _LAYOUT
        if token.type == tokenize.STRING and starts_statement and tokens[i + 1].type == tokenize.NEWLINE:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv=None):
    roots = [Path(arg) for arg in (sys.argv[1:] if argv is None else argv)] or [SRC]
    files = sorted(p for root in roots for p in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count} {path}")
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
