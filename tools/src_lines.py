"""Count the lines of each ``src/`` module by kind: code, docstring,
comment and blank.

A docstring line is any line of a module, class or function docstring,
found with the ``ast`` module, blank lines inside it included.  A comment
line holds nothing but a ``#`` comment; a line of code with a trailing
comment counts as code.  Every other line is code.  The four kinds add up
to the file's line count.

Usage: ``python3 tools/src_lines.py [--against REV] [SRC_DIR]``
(default: ``src`` beside this script's directory).  Prints one row per
module and a total row.  With ``--against REV`` it also counts SRC_DIR as
git revision REV holds it (read with ``git ls-tree`` and ``git show``) and
prints a delta row per module, this tree minus REV, per kind (a module
only one side has counts as empty on the other), then that total and the
total's delta row.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
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


def revision_sources(root: Path, rev: str) -> dict[str, str]:
    """The ``.py`` files under ``root`` at git revision ``rev``, by path
    relative to ``root``."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, check=True, encoding="utf-8"
        ).stdout

    names = git("ls-tree", "-r", "--name-only", rev).splitlines()
    return {name: git("show", f"{rev}:./{name}") for name in names if name.endswith(".py")}


def row(name: str, counts: dict[str, int]) -> str:
    return f"{name:<32}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS)


def total(counts: dict[str, dict[str, int]]) -> dict[str, int]:
    """The counts of each module (path -> counts), summed by kind."""
    return {k: sum(c[k] for c in counts.values()) for k in KINDS}


def delta(now: dict[str, int], then: dict[str, int]) -> dict[str, int]:
    return {k: now[k] - then[k] for k in KINDS}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count src/ lines by kind.")
    parser.add_argument("src_dir", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--against", metavar="REV", help="also count the git revision REV")
    args = parser.parse_args(argv[1:])
    root = args.src_dir
    now = {
        p.relative_to(root).as_posix(): count(p.read_text(encoding="utf-8")) for p in root.rglob("*.py")
    }
    print(f"{'module':<32}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for name in sorted(now):
        print(row(name, now[name]))
    if args.against is not None:
        try:
            then = {name: count(text) for name, text in revision_sources(root, args.against).items()}
        except subprocess.CalledProcessError as e:
            sys.exit(f"git: {e.stderr.strip()}")
        none = dict.fromkeys(KINDS, 0)  # a module one side lacks
        for name in sorted(now.keys() | then.keys()):
            print(row(f"delta {name}", delta(now.get(name, none), then.get(name, none))))
    print(row("total", total(now)))
    if args.against is not None:
        print(row(f"total at {args.against}", total(then)))
        print(row("delta", delta(total(now), total(then))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
