"""The package computes exactly: no float literal, float() call or true division.

Every source file of the package is read through ast.  A float (or complex)
literal, a call of the float builtin or a true division ``/`` fails the test,
unless it is listed in ALLOWED with its reason.  Floor division ``//`` and
Fraction arithmetic are exact and pass.

The number format is decided in core alone: a Fraction(...) call (or a call
of one of Fraction's constructors) anywhere else fails, and FRACTION_CALLS
lists core's own calls exactly.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import tropsolve

PACKAGE = Path(tropsolve.__file__).resolve().parent

# (module, literal value) -> (count, reason).  The list is exact: a use that
# goes away must leave it too.
ALLOWED = {
    ("cells", 0.0): (
        2,
        "solve starts its enumerate and cells wall-clock timers at 0.0 s; "
        "they feed SolveStats.timings only, no solver value",
    ),
    ("cells", 0.3): (
        1,
        "sample_cell puts each parameter of a sampled point at -inf with "
        "probability 0.3; it picks which member sample_cell returns, not the cells",
    ),
}


# module -> (count, reason) of its Fraction calls.  Exact, like ALLOWED.
FRACTION_CALLS = {
    "core": (
        2,
        "as_scalar reads a token that is no plain integer literal with Fraction, "
        "and unscaled writes a non-integral int over a unit as a Fraction",
    ),
}


def _fraction_calls(tree: ast.AST) -> list[int]:
    """The lines of Fraction(...), fractions.Fraction(...) and Fraction.from_*(...) calls."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "Fraction":
                found.append(node.lineno)
            elif getattr(func, "id", None) == "Fraction" or getattr(func, "attr", None) == "Fraction":
                found.append(node.lineno)
    return found


def test_only_core_builds_fractions():
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = _fraction_calls(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            calls[path.stem] = lines
    assert {stem: len(lines) for stem, lines in calls.items()} == {
        stem: count for stem, (count, _) in FRACTION_CALLS.items()
    }, calls


def test_the_fraction_scan_finds_each_spelling():
    source = (
        "a = Fraction(1, 2)\nb = fractions.Fraction('1/2')\nc = Fraction.from_float(x)\n"
        "d = Fraction\ne = isinstance(v, Fraction)\nf: Fraction = g(Fraction)\n"
    )
    assert _fraction_calls(ast.parse(source)) == [1, 2, 3]


def _inexact(tree: ast.AST) -> list[tuple[int, str, object]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "literal", node.value))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float() call", None))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division", None))
    return found


def test_no_floats_in_the_package():
    literals: Counter = Counter()
    other = []
    paths = sorted(PACKAGE.glob("*.py"))
    assert {"core", "cells", "bivariate", "reductions", "cli"} <= {p.stem for p in paths}
    for path in paths:
        for line, kind, value in _inexact(ast.parse(path.read_text(encoding="utf-8"))):
            if kind == "literal" and (path.stem, value) in ALLOWED:
                literals[(path.stem, value)] += 1
            else:
                other.append(f"{path.name}:{line}: {kind} {value if value is not None else ''}")
    assert not other, "inexact arithmetic in the package:\n" + "\n".join(other)
    assert literals == Counter({key: count for key, (count, _) in ALLOWED.items()})


def test_the_scan_finds_each_kind():
    source = "x = 0.5\ny = float(3)\nz = 1 / 2\nz /= 2\nw = 7 // 2\n"
    kinds = [kind for _, kind, _ in _inexact(ast.parse(source))]
    assert sorted(kinds) == ["float() call", "literal", "true division", "true division"]
