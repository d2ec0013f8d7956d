#!/usr/bin/env python3
"""Code and physical line counts of the package's modules.

Run from the root of a source checkout::

    python3 tools/src_lines.py

A code line holds at least one token that is not a comment; blank lines,
comment lines and the lines of module, class and function docstrings are
left out.  Tokens come from :mod:`tokenize` and docstrings from :mod:`ast`.
Prints one ``code physical path`` row per file, then the totals.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

#: Tokens that do not make a line a code line.
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """Line numbers spanned by the docstrings of a module, class or function."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path):
    """``(code, physical)`` line counts of one Python file."""
    text = Path(path).read_text()
    code = set()
    with open(path, "rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type not in NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(text))
    return len(code), len(text.splitlines())


def main():
    paths = sorted(Path("src/conbeck").glob("*.py"))
    if not paths:
        print("no files: run from the root of a checkout", file=sys.stderr)
        return 2
    total = [0, 0]
    for path in paths:
        code, physical = counts(path)
        total[0] += code
        total[1] += physical
        print(f"{code:6d} {physical:6d} {path}")
    print(f"{total[0]:6d} {total[1]:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
