"""Count the code lines of a Python package, per module and in total.

A code line holds at least one token that is not a comment; lines that are
blank, hold only comments, or belong to a module, class or function
docstring (found with ``ast``) are not counted.  Standard library only.

Usage: python tools/code_lines.py [package_dir]   (default: src/mcbricks)
       python tools/code_lines.py OLD_PKG NEW_PKG

With two packages, each module's old and new counts are printed with their
difference, then the totals; a module present in one package only counts 0
in the other.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def package_counts(root: Path) -> dict[str, int]:
    """The code lines of every module under ``root``, keyed by its path relative to ``root``."""
    return {
        path.relative_to(root).as_posix(): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    }


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        old, new = map(package_counts, map(Path, argv))
        for module in sorted(old.keys() | new.keys()):
            before, after = old.get(module, 0), new.get(module, 0)
            print(f"{before:6d} {after:6d} {after - before:+6d}  {module}")
        before, after = sum(old.values()), sum(new.values())
        print(f"{before:6d} {after:6d} {after - before:+6d}  total")
        return 0
    counts = package_counts(Path(argv[0] if argv else "src/mcbricks"))
    for module, count in counts.items():
        print(f"{count:6d}  {module}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
