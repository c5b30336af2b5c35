"""The cell stage holds every set of variables as an int bitmask.

bivariate.py is read through ast: a set(...) or frozenset(...) call, a set
display {a, b} or a set comprehension fails the test, and so does a dict
display, a dict comprehension or a dict(...) call.  The inconsistent
components, the flagged and forced representatives and the -inf set that
remove_and_enlarge closes are int masks (bit v for variable v), as the
column sets are from preprocess on, and the tightest bound per ordered
pair is an entry of one flat n*n list (bivariate.Bounds).
"""

from __future__ import annotations

import ast
from pathlib import Path

import tropsolve.bivariate as bivariate

BIVARIATE = Path(bivariate.__file__).resolve()


def _set_builds(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Set):
            found.append((node.lineno, "set display"))
        elif isinstance(node, ast.SetComp):
            found.append((node.lineno, "set comprehension"))
        elif isinstance(node, ast.Dict):
            found.append((node.lineno, "dict display"))
        elif isinstance(node, ast.DictComp):
            found.append((node.lineno, "dict comprehension"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("set", "frozenset", "dict"):
            found.append((node.lineno, f"{node.func.id}() call"))
    return found


def test_bivariate_builds_no_set():
    found = sorted(_set_builds(ast.parse(BIVARIATE.read_text(encoding="utf-8"))))
    assert not found, "sets or dicts built in bivariate.py:\n" + "\n".join(
        f"line {line}: {kind}" for line, kind in found
    )


def test_the_set_scan_finds_each_kind():
    source = (
        "a = {1, 2}\nb = {v for v in c}\nd = set(c)\ne = frozenset()\n"
        "f = {}\ng = {k: v for k, v in c}\nh: set[int] = 0\ni = 1 << 3\nj = dict(c)\n"
        "k: dict[int, int] = 0\n"
    )
    assert _set_builds(ast.parse(source)) == [
        (1, "set display"), (2, "set comprehension"), (3, "set() call"), (4, "frozenset() call"),
        (5, "dict display"), (6, "dict comprehension"), (9, "dict() call"),
    ]
