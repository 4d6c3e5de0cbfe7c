"""Count code lines: the lines of Python sources that hold a token, not
counting blank lines, comments or docstrings (a string that is the first
statement of a module, class or function). A multi-line token counts every
line it spans.

    python3 tools/code_lines.py [path ...]    # default: src

prints the count of each file and, on the last line, the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path):
    """The number of code lines of the file at ``path``."""
    docs = set()
    for node in ast.walk(ast.parse(Path(path).read_bytes())):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docs.update(range(first.lineno, first.end_lineno + 1))
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in _SKIP]
    return len({line for t in tokens for line in range(t.start[0], t.end[0] + 1)} - docs)


if __name__ == "__main__":
    roots = [Path(p) for p in sys.argv[1:] or ["src"]]
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    counts = [code_lines(f) for f in files]
    for f, count in zip(files, counts):
        print(f"{count:6d} {f}")
    print(f"{sum(counts):6d} total")
