"""The --check grid against the set-built one it replaced.

reference_parse_grid below is cli._parse_grid with the GridSpec.of it
called before that sorted and dropped equal neighbours in place of building
a set.  It is kept here as the definition the grid must match: the same
values of the same type, or the same exception type with the same message.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tropsolve.cli import _parse_grid
from tropsolve.core import MAX_TOKEN_DIGITS, NEG_INF, _check_token_size
from tropsolve.oracle import GridSpec


def reference_parse_grid(option):
    if not option.startswith("grid="):
        raise ValueError("--check expects grid=<v1,v2,...>")
    tokens = [t for t in option[len("grid="):].split(",") if t]
    if not tokens:
        raise ValueError("--check grid needs at least one value")
    for t in tokens:
        _check_token_size(t)
    try:
        values = [Fraction(t) for t in tokens]
    except ZeroDivisionError:
        raise ValueError(f"--check grid has a value with a zero denominator: {option!r}")
    return tuple(sorted(set(values)))


def outcome(fn, arg):
    """(value, type) of fn(arg), or (exception type, message)."""
    try:
        value = fn(arg)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return value, type(value)


def grid_values(option):
    return _parse_grid(option).values


NINES = "9" * MAX_TOKEN_DIGITS
GRID_OPTIONS = [
    "grid=0", "grid=-2,-1,0,1,2", "grid=2,1,2,1", "grid=1,01,+1,2/2,1.0", "grid=1/2,0.5",
    "grid=,,3,", "grid=", "grid=,", "1,2", "grid=1/0", "grid=0,x", "grid=x,1/0",
    "grid=1/0,x", "grid=-inf", "grid=0,-inf", "grid=-oo,1/0", "grid=1e999999999",
    "grid=x,1e999999999", "grid= 7", "grid=" + NINES, "grid=1," + NINES + "9",
    "grid= " + NINES + "9", "grid=١,1", "grid=1_0,10",
]


@pytest.mark.parametrize("option", GRID_OPTIONS)
def test_check_grid_matches_the_reference(option):
    assert outcome(grid_values, option) == outcome(reference_parse_grid, option)


def test_check_grid_random_sweep_matches_the_reference():
    rng = random.Random(1409)
    pool = ["0", "1", "-1", "+2", "007", "1/2", "2/4", "0.5", "1/0", "x", "-inf",
            " 3 ", "", "1e3", "9" * (MAX_TOKEN_DIGITS + 1)]
    for _ in range(3000):
        option = "grid=" + ",".join(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        assert outcome(grid_values, option) == outcome(reference_parse_grid, option), option


def test_grid_spec_of_rejects_floats_and_bools():
    for values in ([0.1], [0, 1.0], [True], [0, False]):
        with pytest.raises(TypeError):
            GridSpec.of(values)


@pytest.mark.parametrize("values", [["-inf"], [0, NEG_INF], [" -inf ", 1]], ids=repr)
def test_grid_spec_of_rejects_neg_inf_by_name(values):
    with pytest.raises(ValueError, match="must be finite"):
        GridSpec.of(values)


def test_grid_spec_of_collapses_spellings_of_one_value():
    assert GridSpec.of([1, "1"]).values == (1,)
    grid = GridSpec.of(["1/2", Fraction(1, 2), "0.5", 2, "+2", " 002 ", 0, "-0"])
    assert grid.values == (0, Fraction(1, 2), 2)
    assert all(type(v) is Fraction for v in grid.values)
    with pytest.raises(ValueError, match="not a tropical scalar token"):
        GridSpec.of(["x"])
