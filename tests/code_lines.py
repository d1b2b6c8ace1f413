"""Print each module's total and code lines under ``src/lemsim``, then the
package's sums.

A code line holds a token of Python code: blank lines, comment lines and
docstrings (a string that opens a module, class or function body) are not
code lines.  Count a change against its parent by running this script on
both trees::

    python tests/code_lines.py /path/to/parent/src/lemsim
    python tests/code_lines.py

Pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "lemsim")
# tokens that are layout, not code
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(total, code)`` lines of the Python ``source``."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(package: str = PACKAGE) -> None:
    totals = [0, 0]
    print(f"{'module':<20} {'total':>6} {'code':>6}")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                total, code = count(fh.read())
            print(f"{name:<20} {total:>6} {code:>6}")
            totals[0] += total
            totals[1] += code
    print(f"{'all':<20} {totals[0]:>6} {totals[1]:>6}")


if __name__ == "__main__":
    main(*sys.argv[1:])
