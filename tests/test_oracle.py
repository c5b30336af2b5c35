import random
from fractions import Fraction

import pytest

from tropsolve import (
    NEG_INF,
    GridSpec,
    Matrix,
    cross_validate,
    grid_solutions,
    solve,
)
from tropsolve.oracle import GridTooLarge

NI = "-inf"


def test_grid_three_by_three(three_by_three_example):
    a, b = three_by_three_example
    sols = grid_solutions(a, b, GridSpec.of([0, 1]))
    assert sols == [
        (NEG_INF, NEG_INF, NEG_INF),
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(1)),
    ]


def test_grid_empty_case(empty_case_example):
    a, b = empty_case_example
    sols = grid_solutions(a, b, GridSpec.of([0, 1]))
    assert sols == [(NEG_INF,) * 4]


def test_grid_identical_sides():
    a = Matrix([[0, 1], [2, 3]])
    sols = grid_solutions(a, a, GridSpec.of([0]))
    assert len(sols) == 4  # every candidate


def test_grid_cap_rejected():
    a = Matrix([[0, 1, 2], [2, 3, 4]])
    with pytest.raises(GridTooLarge) as err:
        grid_solutions(a, a, GridSpec.of(range(10)), cap=100)
    assert "1331" in str(err.value)


def test_grid_rational_entries():
    a = Matrix([["1/2", NI]])
    b = Matrix([[NI, "0"]])
    sols = grid_solutions(a, b, GridSpec.of([Fraction(0), Fraction(1, 2), Fraction(1)]))
    # x1 + 1/2 = x2 over T
    assert (Fraction(0), Fraction(1, 2)) in sols
    assert (Fraction(1, 2), Fraction(1)) in sols
    assert (Fraction(0), Fraction(1)) not in sols


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(())
    with pytest.raises(ValueError):
        GridSpec((Fraction(1), Fraction(1)))
    assert GridSpec.of([3, 1, 2]).values == (1, 2, 3)


def test_cross_validate_running(running_example):
    a, b = running_example
    result = solve(a, b)
    report = cross_validate(a, b, GridSpec.of(range(-2, 4)), result, samples_per_cell=25)
    assert report.ok
    assert report.oracle_count > 1
    assert report.sample_count == 25 * len(result.cells)


def test_cross_validate_trivial(empty_case_example):
    a, b = empty_case_example
    report = cross_validate(a, b, GridSpec.of([0, 1]), solve(a, b))
    assert report.ok and report.oracle_count == 1


def test_cross_validate_detects_missing_cell(running_example):
    from tropsolve.cells import SolutionSet

    a, b = running_example
    full = solve(a, b)
    crippled = SolutionSet(
        cells=full.cells[:2],
        globally_forced=full.globally_forced,
        trivial_only=False,
        win_sequence_count=2,
        num_vars=4,
    )
    report = cross_validate(a, b, GridSpec.of(range(-2, 3)), crippled, samples_per_cell=4)
    assert not report.ok and report.missed


def test_cross_validate_random_small():
    rng = random.Random(61)
    values = [NEG_INF, Fraction(0), Fraction(1)]
    for trial in range(120):
        m, n = rng.randint(1, 2), rng.randint(1, 3)
        a = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
        b = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
        report = cross_validate(
            a, b, GridSpec.of([0, 1, 2]), solve(a, b), samples_per_cell=5, seed=trial
        )
        assert report.ok, (a.to_rows(), b.to_rows(), report.missed, report.invalid)
