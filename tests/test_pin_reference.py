"""The int pin path against the Fraction pin path it replaced, on seeded draws.

reference_pin below reads a base cell's Fraction views (assignments and
constraints) and returns the pinned fields in the base cell's numbering, as
the Fraction pin_variable did; reference_items renumbers them the way
PinnedCell.contains and sample number their vectors, as the CLI did before
rendering.  They are kept here as the definition the int fields must match,
each int read as Fraction(int, scale).
"""

from __future__ import annotations

import random
from fractions import Fraction

from tropsolve import NEG_INF, Matrix, emit, solve
from tropsolve.reductions import AffineInstance, pin_variable, solve_affine

# Entries over halves and thirds: the base cells have scales 1, 2, 3 and 6.
HALVES_AND_THIRDS = (
    NEG_INF,
    Fraction(0),
    Fraction(1, 2),
    Fraction(-3, 2),
    Fraction(2, 3),
    Fraction(-1, 3),
    Fraction(1),
)
PIN_VALUES = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(-7, 4))


def reference_pin(cell, var, value):
    """(neg_inf, fixed, assignments, constraints, lower, upper) of the pinned cell.

    None if the cell forces var to -inf.  Indices are the base cell's.
    """
    if var in cell.neg_inf:
        return None
    val = Fraction(value)
    param0, off0 = cell.assignments[var]
    t0 = val - off0
    fixed = {}
    assignments = {}
    for v, (param, offset) in cell.assignments.items():
        if v == var:
            continue
        if param == param0:
            fixed[v] = t0 + offset
        else:
            assignments[v] = (param, offset)
    lower = {}
    upper = {}
    constraints = []
    for c in cell.constraints:
        if c.plus == param0:
            bound = t0 + c.constant
            if c.minus not in lower or bound > lower[c.minus]:
                lower[c.minus] = bound
        elif c.minus == param0:
            bound = t0 - c.constant
            if c.plus not in upper or bound < upper[c.plus]:
                upper[c.plus] = bound
        else:
            constraints.append(c)
    return cell.neg_inf, fixed, assignments, constraints, lower, upper


def reference_items(var, pinned):
    """The reference fields numbered as the pinned cell's vectors are."""
    neg_inf, fixed, assignments, constraints, lower, upper = pinned

    def at(k):
        return k - 1 if k > var else k

    return (
        {at(v) for v in neg_inf},
        {at(v): c for v, c in fixed.items()},
        [(at(v), at(p), o) for v, (p, o) in assignments.items()],
        {at(p): c for p, c in lower.items()},
        {at(p): c for p, c in upper.items()},
        [(at(c.plus), at(c.minus), c.constant) for c in constraints],
    )


def int_items(pc):
    """The same six fields of a PinnedCell, each int read over its scale."""

    def q(n):
        return Fraction(n, pc.scale)

    return (
        set(pc.neg_inf),
        {v: q(c) for v, c in pc.fixed},
        [(v, p, q(o)) for v, p, o in pc.assigned],
        {p: q(b) for p, b in pc.lower},
        {p: q(b) for p, b in pc.upper},
        [(plus, minus, q(c)) for plus, minus, c in pc.rows],
    )


def _matrix(rng, m, n):
    return Matrix([[rng.choice(HALVES_AND_THIRDS) for _ in range(n)] for _ in range(m)], cols=n)


def test_pin_variable_matches_the_fraction_reference():
    rng = random.Random(5100)
    seen = {"fixed": 0, "lower": 0, "upper": 0, "rows": 0, "moved": 0, "scale>1": 0}
    pinned = skipped = 0
    for _ in range(80):
        m, n = rng.randint(1, 3), rng.randint(2, 4)
        for cell in solve(_matrix(rng, m, n), _matrix(rng, m, n)).cells:
            for var in range(cell.num_vars):
                for value in PIN_VALUES:
                    expected = reference_pin(cell, var, value)
                    pc = pin_variable(cell, var, value)
                    if expected is None:
                        assert pc is None
                        skipped += 1
                        continue
                    assert pc.base is cell and pc.pinned_var == var
                    assert pc.pinned_value == value and pc.num_vars == cell.num_vars - 1
                    assert pc.scale % cell.scale == 0 and pc.scale % value.denominator == 0
                    assert int_items(pc) == reference_items(var, expected), (cell, var, value)
                    pinned += 1
                    seen["fixed"] += bool(pc.fixed)
                    seen["lower"] += bool(pc.lower)
                    seen["upper"] += bool(pc.upper)
                    seen["rows"] += bool(pc.rows)
                    seen["moved"] += var < cell.num_vars - 1 and bool(pc.assigned)
                    seen["scale>1"] += cell.scale > 1
    assert pinned >= 1000 and skipped
    assert all(seen.values()), seen


def test_emit_of_a_pinned_set_builds_no_fraction_views():
    rng = random.Random(5200)
    cells = 0
    for _ in range(80):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        inst = AffineInstance(
            _matrix(rng, m, n),
            _matrix(rng, m, n),
            tuple(rng.choice(HALVES_AND_THIRDS) for _ in range(m)),
            tuple(rng.choice(HALVES_AND_THIRDS) for _ in range(m)),
        )
        result = solve_affine(inst)
        emit(result, "text", "affine")
        emit(result, "json", "affine")
        for cell in result.cells:
            assert "assignments" not in cell.base.__dict__
            assert "constraints" not in cell.base.__dict__
        cells += len(result.cells)
    assert cells >= 60
