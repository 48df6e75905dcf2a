"""Print the code lines of each module of a ``curvestab`` source tree and
their total:

    python tests/code_lines.py            # this checkout's src/curvestab
    python tests/code_lines.py OTHER/src/curvestab

A code line holds at least one token that is not a comment and not part
of a docstring (the first statement of a module, class or function, when
it is a string); blank lines, comment lines and docstring lines do not
count.  A string or bracket spanning several lines counts each of them.
Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> None:
    root = argv[0] if argv else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "curvestab")
    total = 0
    for name in sorted(f for f in os.listdir(root) if f.endswith(".py")):
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        print(f"{n:6d}  {name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
