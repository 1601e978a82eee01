"""Source hygiene: every name a package module imports is used in it, the
package imports nothing outside the standard library, and it holds no
``assert`` statement (``python -O`` strips them, so a check must raise)."""

import ast
import sys
from pathlib import Path

import pytest

import cyclewall

PACKAGE_FILES = sorted(Path(cyclewall.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE_FILES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom typing import Optional, Sequence\n"
                          "x: Sequence[int] = []\n") == ["Optional (line 2)",
                                                         "os (line 1)"]


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level names of absolute imports that the standard library lacks."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - sys.stdlib_module_names)


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text()) == []


def test_scan_flags_a_non_stdlib_import():
    assert non_stdlib_imports("from __future__ import annotations\n"
                              "import os.path\nimport networkx as nx\n"
                              "from numpy.linalg import norm\n"
                              "from . import words\nfrom .davis import x\n") == [
        "networkx", "numpy"]


def assert_lines(source: str) -> list[int]:
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == []


def test_scan_flags_an_assert():
    assert assert_lines("x = 1\nassert x, 'x is set'\n"
                        "def f(y):\n    assert y > 0\n    return y\n") == [2, 4]


def private_sibling_imports(source: str) -> list[str]:
    """Underscore-prefixed names imported from a sibling module."""
    return sorted(f"{node.module}.{alias.name} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level > 0
                  for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_no_private_names_from_sibling_modules(path):
    assert private_sibling_imports(path.read_text()) == []


def test_scan_flags_a_private_sibling_import():
    assert private_sibling_imports("from ._x import y\nfrom .words import (\n"
                                   "    _push,\n    mul,\n)\n"
                                   "from os import _exit\n") == [
        "words._push (line 2)"]
