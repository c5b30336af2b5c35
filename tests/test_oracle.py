import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

import tropsolve.cells as cells_mod
from conftest import make_cell, planted_rows, random_rows
from tropsolve import (
    NEG_INF,
    GridSpec,
    Matrix,
    cross_validate,
    grid_solutions,
    sample_cell,
    solve,
)
from tropsolve.cells import SolutionSet
from tropsolve.core import DimensionMismatch, NegInfinity
from tropsolve.oracle import GridTooLarge
from tropsolve.reductions import (
    AffineInstance,
    hetero_to_homo,
    homogenize_affine,
    solve_affine,
    solve_hetero,
)

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


def _error_of(make):
    with pytest.raises((TypeError, ValueError)) as info:
        make()
    return info.type, str(info.value)


def test_grid_spec_rejects_a_float_as_of_does():
    assert _error_of(lambda: GridSpec((0.5,))) == _error_of(lambda: GridSpec.of((0.5,)))
    assert _error_of(lambda: GridSpec((0, 1.0)))[0] is TypeError


def test_grid_spec_rejects_a_bool_as_of_does():
    assert _error_of(lambda: GridSpec((True,))) == _error_of(lambda: GridSpec.of((True,)))
    assert _error_of(lambda: GridSpec((-1, False)))[0] is TypeError


def test_grid_spec_rejects_a_string_value():
    for values in (("1",), (0, "1/2"), ("-inf", 0)):
        with pytest.raises(TypeError, match="GridSpec.of parses"):
            GridSpec(values)
    assert GridSpec.of(("1",)).values == (1,)


def test_grid_spec_rejects_neg_inf_as_of_does():
    assert _error_of(lambda: GridSpec((NEG_INF, 0))) == _error_of(lambda: GridSpec.of((NEG_INF, 0)))
    assert _error_of(lambda: GridSpec((NEG_INF, 0)))[0] is ValueError


def test_grid_spec_of_ints_and_fractions_solves():
    a = Matrix([[0, "-inf"], [1, 0]])
    grid = GridSpec((-1, Fraction(1, 2), 1))
    assert grid_solutions(a, a, grid) == grid_solutions(a, a, GridSpec.of(["-1", "1/2", 1]))


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


def _trivial_set(num_vars):
    return SolutionSet((), frozenset(range(num_vars)), True, 0, num_vars)


def test_cross_validate_rejects_a_set_of_another_width():
    a = Matrix([[0, 1]])
    b = Matrix([[1, 0]])
    grid = GridSpec.of([0, 1])
    with pytest.raises(DimensionMismatch):
        cross_validate(a, b, grid, _trivial_set(3))
    # cells of three variables, against a pair whose grid has no nontrivial
    # solution: no membership test would ever see the width
    three = solve(Matrix([[0, 1, NI]]), Matrix([[NI, 0, 1]]))
    assert three.cells
    lonely = Matrix([[0, NI]]), Matrix([[NI, 5]])
    assert grid_solutions(*lonely, grid) == [(NEG_INF, NEG_INF)]
    with pytest.raises(DimensionMismatch):
        cross_validate(*lonely, grid, three)


def test_cross_validate_rejects_fewer_than_one_sample():
    a = Matrix([[0, 1]])
    for result in (_trivial_set(2), solve(a, a)):
        with pytest.raises(ValueError):
            cross_validate(a, a, GridSpec.of([0, 1]), result, samples_per_cell=0)


@pytest.mark.parametrize(
    "name, value, error, message",
    [
        ("box", 2.5, TypeError, "box must be an int, not float"),
        ("box", True, TypeError, "box must be an int, not bool"),
        ("box", 0, ValueError, "box must be at least 1"),
        ("samples_per_cell", 2.5, TypeError, "samples_per_cell must be an int, not float"),
        ("samples_per_cell", True, TypeError, "samples_per_cell must be an int, not bool"),
    ],
    ids=["box-float", "box-bool", "box-zero", "samples-float", "samples-bool"],
)
def test_cross_validate_checks_box_and_samples_before_the_grid(name, value, error, message):
    # cap=0 makes any enumeration raise GridTooLarge, so the check comes first;
    # x1 = -inf is the only solution of [[0]] = [[-inf]], a result without cells
    cases = [(Matrix([[0]]), Matrix([[NI]])), (Matrix([[0, 1]]), Matrix([[0, 1]]))]
    results = [solve(a, b) for a, b in cases]
    assert [bool(r.cells) for r in results] == [False, True]
    for (a, b), result in zip(cases, results):
        with pytest.raises(error, match=message):
            cross_validate(a, b, GridSpec.of([0]), result, cap=0, **{name: value})


def test_cross_validate_sweep_up_to_four_by_five():
    """Random --check at m <= 4, n <= 5 on a 5-value grid (6**5 candidates)."""
    rng = random.Random(6200)
    grid = GridSpec.of(["-3/2", 0, "1/2", "2/3", 2])
    nontrivial = 0
    for trial in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        if trial % 2:
            a, b = planted_rows(rng, m, n)
        else:
            a, b = random_rows(rng, m, n), random_rows(rng, m, n)
        a, b = Matrix(a, cols=n), Matrix(b, cols=n)
        report = cross_validate(a, b, grid, solve(a, b), samples_per_cell=4, seed=trial)
        assert report.ok, (a.to_rows(), b.to_rows(), report.missed, report.invalid)
        nontrivial += report.oracle_count > 1
    assert nontrivial >= 100


def test_cross_validate_leaves_no_reference_cycles(running_example, three_by_three_example):
    five = (
        Matrix([[0, 1, NI, 2, 0], [NI, 0, 1, 0, NI]]),
        Matrix([[1, 0, 0, NI, NI], [0, NI, 2, 1, 0]]),
    )
    cases = [(a, b, solve(a, b)) for a, b in (running_example, three_by_three_example, five)]
    grid = GridSpec.of(range(-2, 3))
    gc.collect()
    gc.disable()
    try:
        for a, b, result in cases:
            cross_validate(a, b, grid, result, samples_per_cell=5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_grid_solutions_memory_stays_bounded(two_by_seven_example):
    """The trailing block keeps every mask within 4096 bits, whatever the grid's size.

    The README 2x7 fixture on six points has 279,936 candidates; one mask
    over all of them would take 34 KiB, and the per-row sweeps hold many.
    """
    a, b = two_by_seven_example
    grid = GridSpec.of([-3, -1, 0, 1, 3])
    assert len(grid.points()) ** a.cols == 279_936
    tracemalloc.start()
    try:
        sols = grid_solutions(a, b, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sols) == 2607
    assert peak < 1 << 20, f"peak {peak} bytes"


def _int_rows(rng, m, n):
    return [
        [NEG_INF if rng.random() < 0.3 else rng.randint(-3, 3) for _ in range(n)] for _ in range(m)
    ]


def test_cross_validate_builds_no_fraction_on_integer_data(monkeypatch, fraction_builds):
    """Integer pairs on an integer grid stay on ints from the grid to the verdicts.

    eq pairs are checked directly, hetero and affine ones through their
    bridges, as the command line checks them.  box is small, so that the
    sampler often needs its shortest-path fallback (the only caller of
    cells.close).
    """
    fallbacks = []
    close = cells_mod.close
    monkeypatch.setattr(cells_mod, "close", lambda *args: fallbacks.append(args) or close(*args))
    rng = random.Random(6400)
    grid = GridSpec.of(range(-2, 3))
    solutions = samples = 0
    for trial in range(150):
        mode = ("eq", "hetero", "affine")[trial % 3]
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        if mode == "eq":
            pair = Matrix(_int_rows(rng, m, n), cols=n), Matrix(_int_rows(rng, m, n), cols=n)
            result = solve(*pair)
        elif mode == "hetero":
            c = Matrix(_int_rows(rng, m, n), cols=n)
            d = Matrix(_int_rows(rng, m, rng.randint(1, 2)))
            pair, result = hetero_to_homo(c, d), solve_hetero(c, d)
        else:
            vec_a, vec_b = _int_rows(rng, 2, m)
            inst = AffineInstance(
                Matrix(_int_rows(rng, m, n), cols=n), Matrix(_int_rows(rng, m, n), cols=n),
                tuple(vec_a), tuple(vec_b),
            )
            pair, result = homogenize_affine(inst), solve_affine(inst).base
        fraction_builds.clear()
        report = cross_validate(*pair, grid, result, samples_per_cell=10, seed=trial, box=1)
        assert fraction_builds == [], (mode, pair)
        assert report.ok, (mode, pair, report)
        solutions += report.oracle_count
        samples += report.sample_count
    assert solutions >= 3000 and samples >= 1000 and len(fallbacks) >= 50, (
        solutions, samples, len(fallbacks)
    )


def _kinds(points):
    """The coordinate types of the points; ints and Fractions are checked against their value."""
    kinds = set()
    for x in points:
        for v in x:
            kinds.add(type(v))
            assert type(v) in (int, Fraction, NegInfinity), v
            assert type(v) is not NegInfinity or v is NEG_INF
            assert type(v) is not Fraction or v.denominator > 1, v
    return kinds


def test_oracle_points_are_ints_when_integral():
    grid = GridSpec.of(["-1", "-1/2", 0, "1/2", 1])
    a = Matrix([[0, "1/2", NI], [1, NI, 0]])
    b = Matrix([[NI, 0, "1/2"], [1, 0, NI]])
    assert _kinds(grid_solutions(a, a, grid)) == {int, Fraction, NegInfinity}
    assert _kinds(grid_solutions(a, b, grid)) == {int, Fraction, NegInfinity}
    # x1 = t1 is integral, x2 = t1 + 1/2 and x3 = t3 + 2/3 are not
    cell = make_cell(3, [(1, 1, 0), (2, 1, "1/2"), (3, 3, "2/3")], [(3, 1, "1/3")])
    assert cell.scale == 6
    points = sample_cell(cell, 40, seed=3)
    assert _kinds(points) == {int, Fraction, NegInfinity}
    assert any(type(x[0]) is int and type(x[1]) is Fraction for x in points)
