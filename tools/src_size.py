"""Size of `src/grancount`, per module: physical lines and code lines.

Usage: python tools/src_size.py [checkout]

For each module of `<checkout>/src/grancount` (default: this checkout) prints its
`wc -l` count (newline characters) and its code-line count, then the totals. A
code line holds a token other than a comment, and is not part of a docstring:
blank lines, comment lines and the lines of module, class and function docstrings
are left out. A statement that spans several lines counts each of them; so does a
string that is not a docstring.
"""

import ast
import io
import os
import sys
import tokenize

# tokens that hold no code: layout, comments and the file's start and end
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of the module's, its classes' and its functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of `source` that hold code, as the module docstring defines them."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    checkout = args[0] if args else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = os.path.join(checkout, "src", "grancount")
    totals = [0, 0]
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            source = fh.read()
        counts = source.count("\n"), code_lines(source)
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{name:<16}{counts[0]:>8}{counts[1]:>8}")
    print(f"{'total':<16}{totals[0]:>8}{totals[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
