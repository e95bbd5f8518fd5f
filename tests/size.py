"""Line counts of the package source.

Usage, from the root of a checkout:

    python tests/size.py

For src/solmanifold/*.py it prints two totals and one line per file:
the physical line count (what `wc -l` reads) and the code-line count.  A
code line is a line that holds part of a token other than a comment, a
docstring, a newline or indentation; a string that spans lines holds every
line it spans.  A docstring is the string constant that opens a module,
class or function body.

It is not part of tier-1 (pytest does not collect it).
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# tokens that never make a line a code line
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree):
    """The (line, column) of every docstring in a module's tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def counts(text):
    """(physical lines, code lines) of one source text."""
    docstrings = docstring_starts(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code)


def main():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "solmanifold", "*.py")))
    total_lines = total_code = 0
    for path in paths:
        with open(path) as fh:
            lines, code = counts(fh.read())
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {os.path.relpath(path, ROOT)}")
    print(f"{total_lines:6d} {total_code:6d}  total (wc -l, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
