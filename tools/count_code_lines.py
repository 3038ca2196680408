#!/usr/bin/env python3
"""Count the code lines of the package, module by module.

Run from anywhere:

    python tools/count_code_lines.py [SRC_DIR]

SRC_DIR defaults to ``src/hardy_means`` next to this script.  A code line
is a line spanned by a statement of the module's ``ast``, from the
statement's first line to its last (a decorator line is not part of the
statement), less the lines of docstrings and the lines that are blank or
hold only a comment.  The script prints one "<lines>  <module>" row per
module, sorted by name, then "<lines>  total (<count> modules)".
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    tree = ast.parse(source)
    spanned = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            spanned.update(range(node.lineno, node.end_lineno + 1))
    text = source.splitlines()
    spanned -= _docstring_lines(tree)
    return sum(1 for i in spanned if text[i - 1].strip() and not text[i - 1].lstrip().startswith("#"))


def main() -> int:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "hardy_means"
    paths = sorted(src.glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total ({len(paths)} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
