"""Count the code lines of the package: non-blank lines that lie outside
module, class and function docstrings and are not comment-only.

usage: python .github/code_lines.py

Prints the count of each module under the repository's ``src`` and the
total, and exits 1 when the total is above ``GATE``.  Standard library only.
"""

import ast
import sys
from pathlib import Path

GATE = 2860
ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(1 for n, line in enumerate(source.splitlines(), 1)
               if n not in skip and line.strip() and not line.lstrip().startswith("#"))


def main() -> int:
    total = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(ROOT)}")
    print(f"{total:6d}  total")
    if total > GATE:
        print(f"error: {total} code lines, above the gate of {GATE}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
