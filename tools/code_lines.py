"""Count the code lines of a checkout's package, per module and in total.

    python tools/code_lines.py [CHECKOUT]

A code line holds at least one token that is not a comment: blank lines,
comment lines and the lines of docstrings (the string that opens a module,
a class or a function body) do not count. A token that spans lines, such
as a multi-line string that is not a docstring, counts every line it spans.
CHECKOUT defaults to the checkout this file is in; the modules counted are
the `*.py` files of its `src/streamcert`, printed one per line as
`<lines> <module>`, then `<lines> total`.

Standard library only (ast and tokenize).
"""

import argparse
import ast
import io
import os
import sys
import tokenize

# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers that the docstrings of tree's module, classes and
    functions span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_package(package_dir):
    """{module file name: code lines} of every `*.py` file in package_dir."""
    counts = {}
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), encoding="utf-8") as fh:
                counts[name] = code_lines(fh.read())
    return counts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", nargs="?",
                    default=os.path.join(os.path.dirname(__file__), os.pardir))
    args = ap.parse_args(argv)
    counts = count_package(os.path.join(args.checkout, "src", "streamcert"))
    for name, n in counts.items():
        print(f"{n:6d} {name}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
