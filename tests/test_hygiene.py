"""Source hygiene: every name a package module imports is used in it, the
package imports nothing outside the standard library, it holds no
``assert`` statement (``python -O`` strips them, so a check must raise), and
importing it loads none of the modules that only code generation and
introspection need."""

import ast
import re
import subprocess
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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def names_used_from(module: str, source: str) -> set[str]:
    """The names ``source`` imports from the sibling ``module`` or reads off
    it as ``module.name``."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module == module:
            used.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == module):
            used.add(node.attr)
    return used


def names_only_tests_use(sources: dict[str, str], perfbench_text: str) -> list[str]:
    """``module.name`` for each module-level public function or class of
    the package (``sources``: module name -> source) that its own module
    does not read, no other package module uses, ``__init__`` does not
    export and ``perfbench_text`` does not name."""
    exported = {alias.name for node in ast.walk(ast.parse(sources["__init__"]))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    found = []
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        used = exported.union(
            (node.id for node in ast.walk(tree) if isinstance(node, ast.Name)),
            *(names_used_from(module, other) for name, other in sources.items()
              if name != module))
        found += [f"{module}.{node.name}" for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in used
                  and not re.search(rf"\b{node.name}\b", perfbench_text)]
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public function or class of the package is read by its own module,
    used by another package module, exported by ``__init__`` or named by
    perfbench (in ``layers.json`` or its code); one that only the tests use
    belongs in them."""
    sources = {p.stem: p.read_text() for p in PACKAGE_FILES}
    perfbench_text = "\n".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py"))
                               + [PERFBENCH / "layers.json"])
    assert names_only_tests_use(sources, perfbench_text) == []


def test_scan_flags_a_test_only_name():
    sources = {
        "__init__": "from .words import mul\n",
        "words": "def mul(): pass\ndef inv(): pass\ndef parse(): pass\n"
                 "def format(): pass\nclass Word: pass\ndef _push(): pass\n"
                 "def one(): pass\ndef two(): return one()\n",
        "cli": "from . import words\nfrom .words import inv\n"
               "def main(): return words.parse()\n",
    }
    assert names_only_tests_use(sources, '{"format": ["calls"]}') == [
        "cli.main", "words.Word", "words.two"]


# Modules that ``import dataclasses`` brings in to generate and inspect
# methods; the package defines its value types by hand so that a command's
# start-up does not load them (about 6 ms, plus 7 ms to generate the methods).
# And argparse: the CLI reads its argv with ``getopt`` off one command table,
# instead of building five parsers on every call (about 2 ms with the
# ``locale`` import its first message translation makes).
START_UP_HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "argparse"}


def heavy_imports(source: str) -> list[str]:
    """``module (line n)`` for each import of a ``START_UP_HEAVY`` module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] in START_UP_HEAVY]
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_no_module_imports_the_dataclass_machinery(path):
    assert heavy_imports(path.read_text()) == []


def test_scan_flags_a_dataclass_import():
    assert heavy_imports("import json\nfrom dataclasses import dataclass, field\n"
                         "import inspect as _inspect\nfrom . import ast\n"
                         "def f():\n    import dis.x\n") == [
        "dataclasses (line 2)", "dis.x (line 6)", "inspect (line 3)"]


_IMPORT_CLI = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import cyclewall.cli
print(" ".join(sorted(before)))
print(" ".join(sorted(set(sys.modules) - before)))
"""


def bytecode_files(src: Path) -> set[Path]:
    return set(src.rglob("*.pyc"))


def test_importing_the_cli_loads_no_dataclass_machinery():
    """A fresh interpreter (no site, no environment, no bytecode written)
    that imports ``cyclewall.cli`` loads no ``START_UP_HEAVY`` module, and
    had none loaded before, so the diff of ``sys.modules`` can show one.
    It leaves no new ``.pyc`` file under ``src``: ``-I`` ignores
    ``PYTHONDONTWRITEBYTECODE``, so ``-B`` says it."""
    src = Path(cyclewall.__file__).resolve().parent.parent
    pyc = bytecode_files(src)
    before, added = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", _IMPORT_CLI, str(src)],
        capture_output=True, text=True, check=True).stdout.splitlines()
    assert bytecode_files(src) <= pyc
    assert "cyclewall.cli" in added.split()
    assert START_UP_HEAVY & set(before.split()) == set()
    assert START_UP_HEAVY & set(added.split()) == set()


_VERIFY = """
import sys
sys.path.insert(0, sys.argv[1])
from cyclewall.cli import main
code = main(["verify", "--suite", "algebraic", "--radius", "2", "--depth", "3", "--seed", "0",
             "--presentation", sys.argv[2], "--output", sys.argv[3]])
print(code, sorted(set(sys.modules) & {"argparse", "locale"}))
"""


def test_a_verify_call_loads_neither_argparse_nor_locale(tmp_path):
    """A fresh interpreter (no site, no environment, no bytecode written)
    that runs ``verify --suite algebraic`` on c5_z3 at radius 2 through
    ``main`` returns 0 with neither ``argparse`` nor ``locale`` loaded:
    reading the argv translates no message, so gettext never imports
    locale.  It leaves no new ``.pyc`` file under ``src``."""
    src = Path(cyclewall.__file__).resolve().parent.parent
    presentation = src.parent / "perfbench" / "presentations" / "c5_z3.json"
    pyc = bytecode_files(src)
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", _VERIFY, str(src), str(presentation),
         str(tmp_path / "report.json")],
        capture_output=True, text=True, check=True).stdout
    assert out == "0 []\n"
    assert bytecode_files(src) <= pyc
