#!/usr/bin/env python3
"""Line counts of the package source, so that a change's net ``src/`` delta is one command.

    python3 tools/src_lines.py [ROOT]

Counts the files ``ROOT/src/fpaccel/*.py``, ROOT being the checkout that
holds this script by default.  For each file, and in total, it prints all
lines and code lines: the lines that hold a token other than a comment, a
docstring or the end of a line, so that blank, comment and docstring lines
are left out.  Run it in two checkouts and subtract the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """(all lines, code lines) of a Python module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(source))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else ROOT
    total_lines = total_code = 0
    for path in sorted((root / "src" / "fpaccel").glob("*.py")):
        lines, code = count_lines(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.relative_to(root)} lines={lines} code={code}")
    print(f"total lines={total_lines} code={total_code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
