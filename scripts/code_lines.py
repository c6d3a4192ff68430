#!/usr/bin/env python3
"""Count the code lines of each module in a package and their total.

A code line holds at least one token that is not a comment: blank lines,
comment lines and the lines of docstrings (the leading string of a module,
class or function, found with ``ast``) are left out; a line inside any
other multi-line string or bracket counts.  Only the standard library is
used, so the count runs on any checkout.

    python3 scripts/code_lines.py                     # src/persistwalk
    python3 scripts/code_lines.py path/to/package
"""

import argparse
import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?",
                    default=os.path.join(here, os.pardir, "src", "persistwalk"))
    args = ap.parse_args()
    names = sorted(n for n in os.listdir(args.package) if n.endswith(".py"))
    if not names:
        print(f"no .py files in {args.package}", file=sys.stderr)
        return 1
    total = 0
    for name in names:
        with open(os.path.join(args.package, name), encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        print(f"{n:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
