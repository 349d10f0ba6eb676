"""Count the lines of each ``src/`` module by kind: code, docstring,
comment and blank.

A docstring line is any line of a module, class or function docstring,
found with the ``ast`` module, blank lines inside it included.  A comment
line holds nothing but a ``#`` comment; a line of code with a trailing
comment counts as code.  Every other line is code.  The four kinds add up
to the file's line count.

Usage: ``python3 tools/src_lines.py [SRC_DIR]`` (default: ``src`` beside
this script's directory).  Prints one row per module and a total row.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """1-based numbers of the lines that module, class and function
    docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """Lines of one module's source, by kind."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if n in docs:
            kind = "docstring"
        elif not text:
            kind = "blank"
        elif text.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<32}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(root.rglob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for k in KINDS:
            total[k] += counts[k]
        name = str(path.relative_to(root))
        print(f"{name:<32}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<32}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
