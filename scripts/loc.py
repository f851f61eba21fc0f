"""Print the size of each ``src/typedfisher`` module, then the totals.

    python3 scripts/loc.py

Run from anywhere; it reads this checkout's ``src/typedfisher``.  Each
row gives a module's ``wc -l`` count and its lines outside docstrings,
comments and blank lines.  A line counts there when a token other than a
comment or a line break starts on it, ends on it or spans it, and it
belongs to no docstring, the string that opens a module, class or
function body.  So every line of a bracketed expression that runs over
several lines counts, and so does every line of a string literal that is
not a docstring.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "typedfisher"

# tokens that are layout, not code
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(source: str) -> tuple[int, int]:
    """``(wc -l, lines outside docstrings, comments and blank lines)`` of
    one module's source text."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstrings)


def main() -> None:
    print(f"{'module':<16}{'wc -l':>7}{'code':>7}")
    totals = [0, 0]
    for path in sorted(SRC.glob("*.py")):
        row = counts(path.read_text())
        totals = [a + b for a, b in zip(totals, row)]
        print(f"{path.name:<16}{row[0]:>7}{row[1]:>7}")
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>7}")


if __name__ == "__main__":
    main()
