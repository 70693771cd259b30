"""Count the code lines of the fedmrl package: lines without docstrings, comments
and blank lines.

A line counts if a token other than a comment, a newline or an indent sits on
it, and a string that is a statement of its own (a docstring) counts no line.
Run from the repository root:

    python tools/code_lines.py            # src/fedmrl, one line per file and a total
    python tools/code_lines.py some/dir   # another directory of .py files

It prints the code-line count and the `wc -l` line count of each file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED or token.start[0] in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else "src/fedmrl")
    total_code = total_lines = 0
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code, lines = code_lines(source), len(source.splitlines())
        total_code, total_lines = total_code + code, total_lines + lines
        print(f"{code:6d} {lines:6d}  {path}")
    print(f"{total_code:6d} {total_lines:6d}  total (code lines, wc -l lines)")


if __name__ == "__main__":
    main(sys.argv[1:])
