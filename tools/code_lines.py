"""Count the code lines of each module of a package, and their total.

    python3 tools/code_lines.py [PACKAGE_DIR]

A code line is a source line that holds some token other than a comment:
blank lines, comment-only lines and the lines of module, class and
function docstrings do not count. A statement or string that spans several
lines counts each of them. PACKAGE_DIR defaults to the `src/wsnaslab` next
to this script; every `*.py` below it is counted. The script prints one
`<count>  <path>` line per module, paths relative to PACKAGE_DIR's parent,
then `<total>  total`.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("package", nargs="?", type=Path,
                   default=Path(__file__).resolve().parents[1] / "src" / "wsnaslab")
    args = p.parse_args(argv)
    total = 0
    for path in sorted(args.package.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(args.package.parent)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
