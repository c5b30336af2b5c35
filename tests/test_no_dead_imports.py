"""No module of the package imports a name it never uses.

Every source file of the package is read through ast.  A name bound by an
import (or from-import) statement must be read somewhere in the module: a
name kept only for a caller outside the module, such as a tracer that wraps
it, or left behind when its last use went away, fails the test.  The
package's __init__.py is exempt: its imports are the public re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import tropsolve

PACKAGE = Path(tropsolve.__file__).resolve().parent


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
