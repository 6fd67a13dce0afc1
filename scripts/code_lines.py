"""Line counts of the package and the scripts: every line, and code lines.

Usage:

    python scripts/code_lines.py CHECKOUT

``CHECKOUT`` is the root of a vecroute checkout. For each ``*.py`` file
under its ``src/vecroute/`` and ``scripts/``, the script counts the lines
(what ``wc -l`` prints) and the code lines: lines that hold a token other
than a comment, a line break or indentation, outside the docstrings of the
module, its classes and its functions. A string that is not a docstring
counts on every line it spans, and so does a call written over several
lines. It prints, as sorted JSON, ``{"lines", "code"}`` per file, keyed by
its path relative to ``CHECKOUT``, and the sums per directory under
``totals``.
"""

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

DIRECTORIES = ("src/vecroute", "scripts")
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """``{"lines", "code"}`` of one module's source."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE and tok.start[0] not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return {"lines": source.count("\n"), "code": len(code)}


def report(checkout: Path) -> dict[str, object]:
    files, totals = {}, {}
    for directory in DIRECTORIES:
        total = totals[directory] = {"lines": 0, "code": 0}
        for path in sorted((checkout / directory).rglob("*.py")):
            counts = files[path.relative_to(checkout).as_posix()] = count(path.read_text())
            for key, value in counts.items():
                total[key] += value
    return {"files": files, "totals": totals}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Line counts of the package and the scripts.")
    parser.add_argument("checkout", type=Path, help="root of a vecroute checkout")
    print(json.dumps(report(parser.parse_args().checkout), indent=1, sort_keys=True))
