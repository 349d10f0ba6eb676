"""The runtime stays stdlib-only: every import in the package is either
relative, of cf_forge itself, or of a standard-library module.  And every
name a module imports is used there: an import must not outlive the code
that needed it."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cf_forge"
PYPROJECT = ROOT / "pyproject.toml"


def absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, name in absolute_imports(tree):
            top = name.split(".")[0]
            if top != "cf_forge" and top not in sys.stdlib_module_names:
                foreign.append(f"{path.name}:{lineno}: {name}")
    assert foreign == []


def imported_names(tree: ast.AST):
    """(line, name) of each name an import binds, ``__future__`` features
    aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_package_modules_use_every_name_they_import():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # imports to re-export
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{lineno}: {name}" for lineno, name in imported_names(tree)
                   if name not in used]
    assert unused == []


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project.get("dependencies", []) == []
