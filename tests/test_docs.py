"""The documentation points at code that exists.

Each module docstring is a map: it names a mechanism and the one docstring
that states it.  A map that names a deleted or renamed function sends the
reader nowhere, so every double-backticked identifier or dotted name in a
``cf_forge`` module docstring must resolve to an attribute of that module,
of one of its classes, or of the package.  The README's layout table must
name modules that exist, and ``tools/src_lines.py``, which counts the
``src/`` lines by kind, must count each line once, at a git revision too.
"""

import importlib
import pkgutil
import re
import runpy
import shutil
import subprocess
from pathlib import Path

import pytest

import cf_forge

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(cf_forge.__path__) if m.name != "__main__")
NAME = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")
MAPS = ("engine", "metric", "optimizer")


def resolves(root, dotted: str) -> bool:
    """True when each part of ``dotted`` is an attribute of what the parts
    before it name."""
    obj = root
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def docstring_names(module) -> list[str]:
    return NAME.findall(module.__doc__ or "")


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_module_docstring_names_resolve(name):
    module = cf_forge if name == "__init__" else importlib.import_module(f"cf_forge.{name}")
    roots = [module, cf_forge] + [v for v in vars(module).values() if isinstance(v, type)]
    missing = [n for n in docstring_names(module) if not any(resolves(r, n) for r in roots)]
    assert missing == []


@pytest.mark.parametrize("name", MAPS)
def test_maps_stay_maps(name):
    module = importlib.import_module(f"cf_forge.{name}")
    assert len(module.__doc__.strip().splitlines()) <= 20
    assert len(docstring_names(module)) >= 5


def test_readme_layout_table_names_existing_modules():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = re.findall(r"^\| `(cf_forge\.\w+)` \|", readme, re.MULTILINE)
    assert named, "the README has no layout table"
    for module in named:
        importlib.import_module(module)


def test_src_lines_counts_each_line_once():
    count = runpy.run_path(str(ROOT / "tools" / "src_lines.py"))["count"]
    source = '''"""Module
docstring."""

import os  # a trailing comment is code

# a comment


def f():
    """One line."""
    return os
'''
    assert count(source) == {"code": 3, "docstring": 3, "comment": 1, "blank": 4}
    for path in (ROOT / "src" / "cf_forge").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert sum(count(text).values()) == len(text.splitlines())


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not on PATH")
def test_src_lines_counts_a_revision_and_the_delta(tmp_path, capsys):
    main = runpy.run_path(str(ROOT / "tools" / "src_lines.py"))["main"]
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "outside.py").write_text("w = 0\n")  # not under src: never counted

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), *args], check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false",
        "commit", "-q", "-m", "one")
    (pkg / "a.py").write_text('"""Doc."""\nx = 1\n# note\n\ny = 2\n')
    (pkg / "b.py").write_text("z = 3\n")
    assert main(["src_lines.py", "--against", "HEAD", str(tmp_path / "src")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-3] == ["total", "6", "3", "1", "1", "1"]
    assert rows[-2] == ["total", "at", "HEAD", "2", "1", "1", "0", "0"]
    assert rows[-1] == ["delta", "4", "2", "0", "1", "1"]
    # one delta row per module; b.py, new since HEAD, counts as empty there
    assert rows[-5:-3] == [["delta", "pkg/a.py", "3", "1", "0", "1", "1"],
                           ["delta", "pkg/b.py", "1", "1", "0", "0", "0"]]
