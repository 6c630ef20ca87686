"""Count the code lines of the package: no blank, comment or docstring lines.

A line counts when a token other than a comment or a line break starts,
ends or runs across it; the lines of a module, class or function docstring
do not count.  Stdlib only::

    python tests/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adecox"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines = {
        line
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in _SKIPPED
        for line in range(tok.start[0], tok.end[0] + 1)
    }
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    print(sum(code_lines(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))))
