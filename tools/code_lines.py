"""Line counts of the ``harmext`` package, per module and in total.

Prints, for each module of ``src/harmext``, its ``wc -l`` count and its
code-only count: the lines that remain once blank lines, comment lines
and docstrings (of the module, its classes and its functions) are left
out.  A line that holds code and a trailing comment counts as code.

    python tools/code_lines.py [package directory]

Standard library only; the default directory is ``src/harmext`` beside
this script's parent.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The lines spanned by every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(wc -l, code-only lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return source.count("\n"), len(code)


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parent.parent / "src" / "harmext"
    rows = [(path.stem, *count(path.read_text()))
            for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<12} {'wc -l':>6} {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<12} {total:>6,} {code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
