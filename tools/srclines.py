"""Line counts of a Python source tree, with and without prose.

    python tools/srclines.py SRC_DIR

prints a header, then one line ``<lines> <code> <module>`` per ``.py``
file under ``SRC_DIR`` (paths relative to it, sorted), then
``<lines> <code> total``.  ``lines`` is what ``wc -l`` counts (newline
characters).  ``code`` leaves out blank lines, comment-only lines and
the docstrings of modules, classes and functions, so deleting prose
does not read as a smaller program.  Every other line that holds a
token counts, including each line of a multi-line expression or of a
string that is not a docstring.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """Lines of ``text`` that hold a token outside comments and docstrings."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOC_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main(argv):
    if len(argv) != 2 or not Path(argv[1]).is_dir():
        print("usage: python tools/srclines.py SRC_DIR", file=sys.stderr)
        return 2
    root = Path(argv[1])
    total_lines = total_code = 0
    print(f"{'lines':>7} {'code':>7}  module")
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        lines, code = text.count("\n"), code_lines(text)
        total_lines += lines
        total_code += code
        print(f"{lines:7d} {code:7d}  {path.relative_to(root).as_posix()}")
    print(f"{total_lines:7d} {total_code:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
