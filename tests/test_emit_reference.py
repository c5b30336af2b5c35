"""The text output against the cell walk it replaced, on seeded draws.

emit lays out text from the same document that --format json serializes.
The reference functions below are the text renderer that walked the cells
a second time, with its own number formatter (a Fraction's ' + c' or
' - c' tail).  They are kept here as the definition the text must match,
byte for byte: plain sets of every mode, deduplicated sets, and pinned sets
whose cells were pinned on any variable, not only the last.
"""

from __future__ import annotations

import random
from fractions import Fraction

from conftest import FRACTIONAL_VALUES, planted_rows, random_rows
from tropsolve import Matrix, emit, solve
from tropsolve.cli import _dedupe
from tropsolve.reductions import (
    AffineInstance,
    PinnedSolutionSet,
    pin_variable,
    solve_affine,
    solve_eq_b,
    solve_hetero,
    solve_leq,
)


def ref_shift(value):
    if value == 0:
        return ""
    return f" + {value}" if value > 0 else f" - {-value}"


def ref_scaled_text(fmt):
    memo = {}

    def for_scale(scale):
        def text(value):
            key = (value, scale)
            out = memo.get(key)
            if out is None:
                out = memo[key] = fmt(Fraction(value, scale))
            return out

        return text

    return for_scale


def ref_variable_lines(num_vars, neg_inf, fixed, assigned, shift):
    lines = {v: f"  x{v + 1} = -inf" for v in neg_inf}
    lines.update((v, f"  x{v + 1} = {c}") for v, c in fixed)
    lines.update((v, f"  x{v + 1} = t{p + 1}{shift(o)}") for v, p, o in assigned)
    return [lines[v] for v in range(num_vars)]


def ref_constraint_text(row, shift):
    plus, minus, c = row
    return f"t{plus + 1} - t{minus + 1}{shift(c)} <= 0"


def ref_cell_text(index, cell, shift):
    seq = " ".join(f"({p + 1},{q + 1})" for p, q in cell.win_sequence)
    lines = [f"cell {index}: win sequence {seq}".rstrip()]
    lines.extend(ref_variable_lines(cell.num_vars, cell.neg_inf, (), cell.assigned, shift))
    if cell.rows:
        lines.append("  subject to:")
        lines.extend(f"    {ref_constraint_text(row, shift)}" for row in cell.rows)
    lines.append(f"  dimension bound: {cell.dimension_bound}")
    return lines


def ref_solution_text(result):
    shifts = ref_scaled_text(ref_shift)
    lines = [f"p: {result.win_sequence_count}"]
    if result.trivial_only:
        lines.append("trivial_only: true")
    if result.globally_forced:
        forced = " ".join(f"x{v + 1}" for v in sorted(result.globally_forced))
        lines.append(f"forced to -inf everywhere: {forced}")
    for i, cell in enumerate(result.cells, start=1):
        lines.extend(ref_cell_text(i, cell, shifts(cell.scale)))
    return "\n".join(lines) + "\n"


def ref_pinned_text(result):
    texts, shifts = ref_scaled_text(str), ref_scaled_text(ref_shift)
    lines = [f"problem: {result.problem}", f"p: {result.base.win_sequence_count}"]
    if not result.cells:
        lines.append("no solution")
    for i, cell in enumerate(result.cells, start=1):
        text, shift = texts(cell.scale), shifts(cell.scale)
        fixed = [(v, text(c)) for v, c in cell.fixed]
        lines.append(f"cell {i}:")
        lines.extend(ref_variable_lines(cell.num_vars, cell.neg_inf, fixed, cell.assigned, shift))
        lower = {p: text(b) for p, b in cell.lower}
        upper = {p: text(b) for p, b in cell.upper}
        for p in sorted(lower.keys() | upper.keys()):
            lo, hi = lower.get(p), upper.get(p)
            if lo is not None and hi is not None:
                lines.append(f"  {lo} <= t{p + 1} <= {hi}")
            elif lo is not None:
                lines.append(f"  t{p + 1} >= {lo}")
            else:
                lines.append(f"  t{p + 1} <= {hi}")
        lines.extend(f"  {ref_constraint_text(row, shift)}" for row in cell.rows)
    return "\n".join(lines) + "\n"


def _matrix(rng, m, n):
    return Matrix(random_rows(rng, m, n), cols=n)


def _vector(rng, m):
    return tuple(rng.choice(FRACTIONAL_VALUES) for _ in range(m))


def _results(rng, mode):
    """A seeded result of the mode, with fractional entries."""
    m, n = rng.randint(1, 3), rng.randint(2, 4)
    if mode == "eq":
        a, b = planted_rows(rng, m, n) if rng.random() < 0.5 else (
            random_rows(rng, m, n), random_rows(rng, m, n)
        )
        return solve(Matrix(a, cols=n), Matrix(b, cols=n))
    if mode == "leq":
        return solve_leq(_matrix(rng, m, n), _matrix(rng, m, n))
    if mode == "hetero":
        return solve_hetero(_matrix(rng, m, n), _matrix(rng, m, rng.randint(1, 3)))
    if mode == "eqb":
        return solve_eq_b(_matrix(rng, m, n), _vector(rng, m))
    inst = AffineInstance(_matrix(rng, m, n), _matrix(rng, m, n), _vector(rng, m), _vector(rng, m))
    return solve_affine(inst)


def _assert_same_text(result):
    if isinstance(result, PinnedSolutionSet):
        expected = ref_pinned_text(result)
    else:
        expected = ref_solution_text(result)
    assert emit(result, "text") == expected, result


def test_text_matches_the_cell_walk_in_every_mode():
    rng = random.Random(1500)
    seen = {"cells": 0, "rows": 0, "negative": 0, "fraction": 0, "forced": 0, "trivial": 0}
    for trial in range(250):
        mode = ("eq", "leq", "hetero", "eqb", "affine")[trial % 5]
        result = _results(rng, mode)
        _assert_same_text(result)
        text = emit(result, "text")
        seen["cells"] += len(result.cells)
        seen["rows"] += "<= 0" in text
        seen["negative"] += " - " in text.replace(" - t", "")
        seen["fraction"] += "/" in text
        seen["forced"] += "forced to -inf everywhere" in text
        seen["trivial"] += "trivial_only" in text or "no solution" in text
    assert all(seen.values()), seen


def test_text_matches_the_cell_walk_after_dedupe():
    rng = random.Random(1501)
    dropped = 0
    for _ in range(120):
        result = _results(rng, rng.choice(("eq", "leq", "hetero")))
        deduped = _dedupe(result)
        dropped += len(result.cells) - len(deduped.cells)
        _assert_same_text(deduped)
    assert dropped, "the draws must hold duplicate cells"


def test_text_matches_the_cell_walk_for_cells_pinned_on_any_variable():
    rng = random.Random(1502)
    seen = {"moved": 0, "fixed": 0, "lower": 0, "upper": 0, "both": 0, "rows": 0}
    for _ in range(80):
        base = _results(rng, "eq")
        for var in range(base.num_vars):
            value = rng.choice((Fraction(0), Fraction(1, 2), Fraction(-7, 3)))
            cells = tuple(
                pc for cell in base.cells if (pc := pin_variable(cell, var, value)) is not None
            )
            result = PinnedSolutionSet(base, cells, base.num_vars - 1, rng.choice(("affine", "eqb")))
            _assert_same_text(result)
            for pc in cells:
                seen["moved"] += var < base.num_vars - 1
                seen["fixed"] += bool(pc.fixed)
                seen["lower"] += bool(pc.lower)
                seen["upper"] += bool(pc.upper)
                seen["both"] += bool({p for p, _ in pc.lower} & {p for p, _ in pc.upper})
                seen["rows"] += bool(pc.rows)
    assert all(seen.values()), seen
