"""No module of the package imports a name it never uses, and no test
helper outlives its last test.

Every source file of the package is read through ast.  A name bound by an
import (or from-import) statement must be read somewhere in the module: a
name kept only for a caller outside the module, such as a tracer that wraps
it, or left behind when its last use went away, fails the test.  The
package's __init__.py is exempt: its imports are the public re-exports.
Likewise every top-level helper or fixture of tests/conftest.py must be
read by a test module (as a name, an imported name or a fixture argument)
or by another helper of conftest.py.
"""

from __future__ import annotations

import ast
from pathlib import Path

import tropsolve

PACKAGE = Path(tropsolve.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _unused_imports(tree: ast.AST) -> list[tuple[int, str]]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_dead_imports_in_the_package():
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert {"core", "cells", "reductions", "oracle", "cli"} <= {p.stem for p in paths}
    dead = [
        f"{path.name}:{line}: {name}"
        for path in paths
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not dead, "imported but never used:\n" + "\n".join(dead)


def test_the_scan_finds_each_kind():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import json as js\n"
        "from math import gcd, lcm as l\n"
        "from .core import oplus\n"
        "def f(x: gcd) -> int:\n"
        "    return os.sep\n"
    )
    assert _unused_imports(ast.parse(source)) == [(3, "js"), (4, "l"), (5, "oplus")]


def _read_names(tree: ast.AST) -> set[str]:
    """Names a module reads (conftest.<name> included), imports by name or takes as arguments."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "conftest":
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.arguments):
            names.update(arg.arg for arg in node.posonlyargs + node.args + node.kwonlyargs)
    return names


def _orphans(conftest: ast.Module, modules: list[ast.AST]) -> list[str]:
    """The top-level names of conftest read by no module and no other top-level statement."""
    defined = {}
    for node in conftest.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    read = set().union(*map(_read_names, modules))
    for node in conftest.body:
        read |= _read_names(node) - {name for name, owner in defined.items() if owner is node}
    return sorted(set(defined) - read)


def test_every_conftest_helper_is_read_by_a_test():
    modules = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(TESTS.glob("test_*.py"))]
    conftest = ast.parse((TESTS / "conftest.py").read_text(encoding="utf-8"))
    assert not _orphans(conftest, modules), "conftest helpers no test reads"


def test_the_conftest_scan_finds_each_kind():
    conftest = ast.parse(
        "import pytest\n"
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "def helper(): return LIMIT\n"
        "def inner(): return 1\n"
        "def outer(): return inner()\n"
        "def alone(): return alone()\n"
        "@pytest.fixture\n"
        "def example(): return 1\n"
        "@pytest.fixture\n"
        "def idle(): return 1\n"
    )
    module = ast.parse(
        "from conftest import helper as h\n"
        "import conftest\n"
        "def test_a(example): return h() + conftest.outer()\n"
    )
    assert _orphans(conftest, [module]) == ["UNUSED", "alone", "idle"]
