"""Count the code lines of a Python package: non-blank lines outside
docstrings, comments counted.

Prints one ``<count>  <module>`` line per module, then ``<count>  total``.
This is the count that ``CHANGES.md`` and ``ROADMAP.md`` quote for ``src/``.

    python scripts/src_lines.py src/mmdseg
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers (1-based) covered by the module, class and function
    docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source, filename=str(path)))
    return sum(1 for i, line in enumerate(source.splitlines(), start=1)
               if line.strip() and i not in skip)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src/mmdseg")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:5d}  {path.relative_to(root)}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
