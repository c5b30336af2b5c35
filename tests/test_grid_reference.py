"""The --check grid against the set-built one it replaced.

reference_parse_grid below is cli._parse_grid with the GridSpec.of it
called before that sorted and dropped equal neighbours in place of building
a set, and with its own token parse before GridSpec.of.  It is kept here as
the definition of the grid's values: a valid option must give the same
values.  A rejected option now fails in GridSpec.of's one
parse, through as_scalar: each token in turn, then the rule that -inf is a
grid point already.  ERRORS pins those texts exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import ref_public, result_of, typed
from tropsolve.cli import _parse_grid
from tropsolve.core import MAX_TOKEN_DIGITS, NEG_INF, TokenTooLarge, _check_token_size, as_scalar
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


TOO_LARGE = (
    "number token {!r} is too large: more than 100 digits or a decimal exponent "
    "beyond 100 (MAX_TOKEN_DIGITS)"
)
ERRORS = {
    "grid=": (ValueError, "--check grid needs at least one value"),
    "grid=,": (ValueError, "--check grid needs at least one value"),
    "1,2": (ValueError, "--check expects grid=<v1,v2,...>"),
    "grid=1/0": (ValueError, "not a tropical scalar token: '1/0'"),
    "grid=0,x": (ValueError, "not a tropical scalar token: 'x'"),
    "grid=x,1/0": (ValueError, "not a tropical scalar token: 'x'"),
    "grid=1/0,x": (ValueError, "not a tropical scalar token: '1/0'"),
    "grid=-inf": (ValueError, "grid values must be finite: -inf is a grid point already"),
    "grid=0,-inf": (ValueError, "grid values must be finite: -inf is a grid point already"),
    "grid=-oo,1/0": (ValueError, "not a tropical scalar token: '1/0'"),
    "grid=1e999999999": (TokenTooLarge, TOO_LARGE.format("1e999999999")),
    "grid=x,1e999999999": (ValueError, "not a tropical scalar token: 'x'"),
    "grid=1," + NINES + "9": (TokenTooLarge, TOO_LARGE.format("9" * 20 + "...")),
    "grid= " + NINES + "9": (TokenTooLarge, TOO_LARGE.format("9" * 20 + "...")),
}


@pytest.mark.parametrize("option", GRID_OPTIONS)
def test_check_grid_matches_the_reference(option):
    expected = result_of(reference_parse_grid, option)
    if option in ERRORS:
        assert expected[0] == "raised" and issubclass(expected[1], ValueError), expected
        assert result_of(grid_values, option) == ("raised", *ERRORS[option])
    else:
        assert result_of(grid_values, option) == expected


def first_rejection(option):
    """The error of the first token as_scalar rejects, else the -inf rule's."""
    tokens = [t for t in option[len("grid="):].split(",") if t]
    if not tokens:
        return ValueError, "--check grid needs at least one value"
    for t in tokens:
        try:
            as_scalar(t)
        except ValueError as exc:
            return type(exc), str(exc)
    return ValueError, "grid values must be finite: -inf is a grid point already"


def test_check_grid_random_sweep_matches_the_reference():
    rng = random.Random(1409)
    pool = ["0", "1", "-1", "+2", "007", "1/2", "2/4", "0.5", "1/0", "x", "-inf",
            " 3 ", "", "1e3", "9" * (MAX_TOKEN_DIGITS + 1)]
    rejected = 0
    for _ in range(3000):
        option = "grid=" + ",".join(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        expected = result_of(reference_parse_grid, option)
        if expected[0] == "ok":
            assert result_of(grid_values, option) == expected, option
        else:
            rejected += 1
            assert result_of(grid_values, option) == ("raised", *first_rejection(option)), option
    assert rejected >= 1000, rejected


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
    assert typed(grid.values) == typed(map(ref_public, (0, Fraction(1, 2), 2)))
    assert [type(v) for v in grid.values] == [int, Fraction, int]
    with pytest.raises(ValueError, match="not a tropical scalar token"):
        GridSpec.of(["x"])
