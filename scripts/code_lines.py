#!/usr/bin/env python3
"""Print the code lines of each latile module and their total.

A code line is a non-blank line that holds a token other than a comment;
module, class and function docstrings do not count.  Every line of any other
multi-line token, such as a string, counts.  Run from anywhere; the modules
are read from src/latile next to this script's directory, or from the
directory given.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE and token.start not in docstrings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> int:
    default = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "latile")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory", nargs="?", default=default)
    args = parser.parse_args()
    counts = {}
    for name in sorted(os.listdir(args.directory)):
        if name.endswith(".py"):
            with open(os.path.join(args.directory, name), encoding="utf-8") as file:
                counts[name] = code_lines(file.read())
    if not counts:
        print(f"no Python modules in {args.directory}", file=sys.stderr)
        return 1
    width = max(map(len, [*counts, "total"]))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
