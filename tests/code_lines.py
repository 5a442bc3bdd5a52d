"""Code lines of the package: lines that hold a token other than a comment or a docstring.

    python tests/code_lines.py [file ...]

prints each module's count and their total; with no file it counts
``src/lqmatern/*.py``.  A token that spans lines (a multi-line string)
counts every line it spans, and a docstring is the string that opens a
module, class or function body.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lqmatern"

# tokens that carry no code: layout, comments and the end of the file
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(tree):
    """(line, column) of each docstring in a parsed module."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source):
    """The number of lines of ``source`` that hold a token other than a comment or docstring."""
    docs = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and tok.start not in docs:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(paths):
    """{module stem: code lines} over ``paths``."""
    return {Path(p).stem: code_lines(Path(p).read_text()) for p in paths}


def main(argv):
    counts = count(argv or sorted(SRC.glob("*.py")))
    for stem, n in counts.items():
        print("%-12s %5d" % (stem, n))
    print("%-12s %5d" % ("total", sum(counts.values())))


if __name__ == "__main__":
    main(sys.argv[1:])
