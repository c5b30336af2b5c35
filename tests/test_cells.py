import math
import random
from dataclasses import fields
from fractions import Fraction

import pytest

from conftest import (
    NI,
    make_cell,
    pair_scale,
    planted_rows,
    pair_masks,
    running_reference_cells,
    seq0,
    seq1,
)
from tropsolve import (
    NEG_INF,
    GridSpec,
    Matrix,
    cell_membership,
    cross_validate,
    emit,
    sample_cell,
    solve,
    verify_solution,
)
import tropsolve.cells as cells_mod
from tropsolve.bivariate import Constraint
from tropsolve.cells import _solve_sequence, dimension_bound
from tropsolve.core import DimensionMismatch, common_denominator, scaled
from tropsolve.preprocess import reduce_instance
from tropsolve.reductions import pin_variable
from tropsolve.winseq import classify_row, enumerate_win_sequences_counted, winning_pairs


def cells_equal_as_sets(cell_a, cell_b, samples=200, seed=0, box=12):
    for point in sample_cell(cell_a, samples, seed=seed, box=box):
        if not cell_membership(cell_b, point):
            return False
    for point in sample_cell(cell_b, samples, seed=seed + 1, box=box):
        if not cell_membership(cell_a, point):
            return False
    return True


def test_solve_running_example_cells(running_example):
    a, b = running_example
    result = solve(a, b)
    assert result.win_sequence_count == 3
    assert not result.trivial_only
    ref1, ref2 = running_reference_cells()
    by_ws = {c.win_sequence: c for c in result.cells}
    assert cells_equal_as_sets(by_ws[ref1.win_sequence], ref1)
    assert cells_equal_as_sets(by_ws[ref2.win_sequence], ref2)


def test_solve_running_example_third_cell_is_real(running_example):
    a, b = running_example
    result = solve(a, b)
    extra = [c for c in result.cells if seq1(c.win_sequence) == ((2, 4), (2, 3), (3, 3))]
    assert len(extra) == 1
    witness = (0, 0, 2, -1)
    assert verify_solution(a, b, witness)
    assert cell_membership(extra[0], witness)
    ref1, ref2 = running_reference_cells()
    assert not cell_membership(ref1, witness)
    assert not cell_membership(ref2, witness)


def test_solve_empty_case(empty_case_example):
    a, b = empty_case_example
    result = solve(a, b)
    assert result.trivial_only
    assert not result.cells
    assert result.globally_forced == {0, 1, 2, 3}


def test_solve_three_by_three(three_by_three_example):
    a, b = three_by_three_example
    result = solve(a, b)
    assert result.win_sequence_count == 1
    assert len(result.cells) == 1
    cell = result.cells[0]
    ref = make_cell(
        3,
        assignments=[(1, 3, 0), (2, 3, 0), (3, 3, 0)],
        constraints=[],
        win_sequence=[(2, 3), (1, 1), (2, 1)],
    )
    assert cells_equal_as_sets(cell, ref)
    assert not cell.constraints


def test_verify_solution_cases(running_example, three_by_three_example):
    a, b = running_example
    assert verify_solution(a, b, (5, -1, 6, 0))
    assert verify_solution(a, b, [NEG_INF] * 4)
    a1, b1 = three_by_three_example
    assert not verify_solution(a1, b1, (0, 0, NI))


def test_cell_membership_running(running_example):
    ref1, _ = running_reference_cells()
    assert cell_membership(ref1, (5, -1, 6, 0))
    assert not cell_membership(ref1, (5, 2, 6, 0))
    assert cell_membership(ref1, [NEG_INF] * 4)


def test_cell_membership_partial_neg_inf():
    ref1, _ = running_reference_cells()
    # the free parameter may be -inf on its own
    assert cell_membership(ref1, (5, NI, 6, 0))
    # the linked component {1,3,4} must drop to -inf together
    assert not cell_membership(ref1, (NI, 0, 6, 0))
    # and once it does, the constraint s <= t+1 drags s down too
    assert not cell_membership(ref1, (NI, 0, NI, NI))
    assert cell_membership(ref1, (NI, NI, NI, NI))


def test_cached_int_view_is_not_part_of_the_cell():
    ref1, _ = running_reference_cells()
    twin, _ = running_reference_cells()
    before = (repr(ref1), [f.name for f in fields(ref1)], hash(ref1))
    assert cell_membership(ref1, (5, -1, 6, 0))
    sample_cell(ref1, 5, seed=1)
    # the cached Fraction views are not fields either
    assert ref1.assignments and ref1.constraints
    assert ref1 == twin and hash(ref1) == hash(twin)
    assert (repr(ref1), [f.name for f in fields(ref1)], hash(ref1)) == before


def test_cell_membership_dimension_check():
    ref1, _ = running_reference_cells()
    with pytest.raises(DimensionMismatch):
        cell_membership(ref1, (0, 0))


def test_sample_cell_contract(running_example):
    a, b = running_example
    result = solve(a, b)
    for cell in result.cells:
        points = sample_cell(cell, 120, seed=9, box=15)
        assert len(points) == 120
        assert points[0] == (NEG_INF,) * 4
        for point in points:
            assert cell_membership(cell, point)
            assert verify_solution(a, b, point)


def test_sample_cell_deterministic(running_example):
    a, b = running_example
    cell = solve(a, b).cells[1]
    assert sample_cell(cell, 50, seed=3) == sample_cell(cell, 50, seed=3)


@pytest.mark.parametrize("box", [2.5, 1.0], ids=["2.5", "1.0"])
def test_sample_cell_rejects_a_float_box(box):
    ref1, _ = running_reference_cells()
    with pytest.raises(TypeError, match="box must be an int, not float"):
        sample_cell(ref1, 3, box=box)


@pytest.mark.parametrize("box", [True, False])
def test_sample_cell_rejects_a_bool_box(box):
    ref1, _ = running_reference_cells()
    with pytest.raises(TypeError, match="box must be an int, not bool"):
        sample_cell(ref1, 3, box=box)


@pytest.mark.parametrize("box", [0, -3])
def test_sample_cell_rejects_a_box_below_one(box):
    ref1, _ = running_reference_cells()
    with pytest.raises(ValueError, match="box must be at least 1"):
        sample_cell(ref1, 3, box=box)


@pytest.mark.parametrize(
    "count, error, message",
    [
        (2.5, TypeError, "count must be an int, not float"),
        (True, TypeError, "count must be an int, not bool"),
        (0, ValueError, "count must be at least 1"),
    ],
    ids=["float", "bool", "zero"],
)
def test_sample_cell_checks_count(count, error, message):
    ref1, _ = running_reference_cells()
    with pytest.raises(error, match=message):
        sample_cell(ref1, count)


def test_a_bad_box_reaches_cross_validate_and_pinned_samples(running_example):
    a, b = running_example
    result = solve(a, b)
    for box, error in ((2.5, TypeError), (True, TypeError), (0, ValueError)):
        with pytest.raises(error, match="box must be"):
            cross_validate(a, b, GridSpec.of([0]), result, box=box)
        pinned = pin_variable(result.cells[0], 0, 0)
        with pytest.raises(error, match="box must be"):
            pinned.sample(2, box=box)


def test_dimension_bound_cases():
    bound = dimension_bound(seq0([(1, 4), (1, 3), (3, 3)]), 4)
    assert bound == 2
    bound2 = dimension_bound(seq0([(4, 1), (2, 1)]), 7)
    assert bound2 == 5
    bound3 = dimension_bound(seq0([(1, 1), (2, 2), (3, 3)]), 5)
    assert bound3 == 5


def test_parameter_count_within_bound(running_example, two_by_seven_example):
    for a, b in (running_example, two_by_seven_example):
        for cell in solve(a, b).cells:
            assert len(cell.parameters()) <= cell.dimension_bound


def test_determinism(running_example, two_by_seven_example, empty_case_example):
    for a, b in (running_example, two_by_seven_example, empty_case_example):
        first = emit(solve(a, b), "json")
        second = emit(solve(a, b), "json")
        assert first == second


def test_solve_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        solve(Matrix([[1]]), Matrix([[1, 2]]))


def test_silenced_row_family_is_found():
    # rows 1-2 admit no compatible pairs, yet (-inf, -inf, t) solves the
    # system for every t: the silencing scenarios must produce that cell
    a = Matrix([[0, NI, NI], [2, NI, NI], [NI, NI, 0]])
    b = Matrix([[NI, 0, NI], [NI, 0, NI], [1, NI, 0]])
    result = solve(a, b)
    assert result.win_sequence_count == 0
    assert not result.trivial_only
    assert len(result.cells) == 1
    cell = result.cells[0]
    assert cell.neg_inf == {0, 1}
    for t in (NEG_INF, Fraction(0), Fraction(5), Fraction(-3)):
        point = (NEG_INF, NEG_INF, t)
        assert verify_solution(a, b, point)
        assert cell_membership(cell, point)


def test_all_rows_gone_cell():
    result = solve(Matrix([[NI, NI]]), Matrix([[0, NI]]))
    assert not result.trivial_only
    assert len(result.cells) == 1
    cell = result.cells[0]
    assert cell.neg_inf == {0}
    assert cell_membership(cell, (NI, 7))


def test_trivial_only_instance():
    result = solve(Matrix([[5]]), Matrix([[0]]))
    assert result.trivial_only and not result.cells
    assert result.win_sequence_count == 0


def test_soundness_random_instances():
    rng = random.Random(99)
    values = [NEG_INF, Fraction(0), Fraction(1), Fraction(2)]
    for trial in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
        b = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
        result = solve(a, b)
        from tropsolve import max_pairs_per_row

        assert result.win_sequence_count <= max_pairs_per_row(n) ** m
        for cell in result.cells:
            assert len(cell.parameters()) <= cell.dimension_bound
            for point in sample_cell(cell, 8, seed=trial, box=6):
                assert verify_solution(a, b, point)


def _sequence_results(a, b, systems=None):
    """Every root sequence of the pair with its _solve_sequence result."""
    red = reduce_instance(pair_masks(a, b))
    classes = [classify_row(red.a_dom, red.b_dom, i) for i in range(len(red.row_origin))]
    sequences, _ = enumerate_win_sequences_counted(
        red.scaled_max, [winning_pairs(c) for c in classes]
    )
    n_red = len(red.col_origin)
    if systems is None:
        return {s: _solve_sequence(s, red, classes, n_red) for s in sequences}
    return {s: _solve_sequence(s, red, classes, n_red, systems) for s in sequences}


def test_row_systems_do_not_outlive_a_scenario(running_example):
    a, b = running_example
    before = _sequence_results(a, b)
    # shifting column 3 keeps every (row, pair) of every sequence and changes
    # the rows' constants: a cache kept across solves would hand them back
    shift = [0, 0, 5, 0]
    shifted = [
        Matrix([[v + shift[j] if v != NEG_INF else v for j, v in enumerate(row)]
                for row in m.to_rows()])
        for m in (a, b)
    ]
    other = _sequence_results(*shifted)
    assert set(other) == set(before)
    assert any(other[s] != before[s] for s in before)
    assert solve(*shifted).cells
    assert _sequence_results(a, b) == before
    # one dict shared by every sequence of the scenario, as solve passes it
    assert _sequence_results(a, b, systems={}) == before


def _ints_from_views(cell):
    """(scale, assigned, rows) recomputed from the Fraction views.

    scale is the lcm of the views' denominators and the ints are over it,
    as cells computed them before they stored their ints.
    """
    scale = common_denominator(
        [o for _, o in cell.assignments.values()] + [c.constant for c in cell.constraints]
    )
    assigned = tuple((v, p, scaled(o, scale)) for v, (p, o) in cell.assignments.items())
    rows = tuple((c.plus, c.minus, scaled(c.constant, scale)) for c in cell.constraints)
    return scale, assigned, rows


def _mixed_rows(rng, m, n, density):
    """Rows over the denominators 1 to 6, each entry -inf with probability density."""
    return [
        [NEG_INF if rng.random() < density else Fraction(rng.randint(-12, 12), rng.randint(1, 6))
         for _ in range(n)]
        for _ in range(m)
    ]


def test_cells_hold_their_ints_in_lowest_terms():
    rng = random.Random(4300)
    cells_seen = scaled_cells = reduced_cells = 0
    for trial in range(160):
        m, n = rng.randint(1, 4), rng.randint(2, 5)
        if trial % 2:
            a, b = planted_rows(rng, m, n)
        else:
            density = rng.choice([0.3, 0.5, 0.7])
            a, b = _mixed_rows(rng, m, n, density), _mixed_rows(rng, m, n, density)
        a, b = Matrix(a, cols=n), Matrix(b, cols=n)
        for cell in solve(a, b).cells:
            ints = [o for _, _, o in cell.assigned] + [c for _, _, c in cell.rows]
            assert math.gcd(cell.scale, *ints) == 1
            assert [v for v, _, _ in cell.assigned] == sorted({v for v, _, _ in cell.assigned})
            assert cell.assignments == {
                v: (p, Fraction(o, cell.scale)) for v, p, o in cell.assigned
            }
            assert cell.constraints == tuple(
                Constraint(p, q, Fraction(c, cell.scale)) for p, q, c in cell.rows
            )
            assert _ints_from_views(cell) == (cell.scale, cell.assigned, cell.rows)
            cells_seen += 1
            scaled_cells += cell.scale > 1
            reduced_cells += cell.scale < pair_scale(a, b)
    # the family is not trivial: most cells need a scale, and many are in a
    # smaller unit than the solve that built them
    assert cells_seen >= 250
    assert scaled_cells >= 200
    assert reduced_cells >= 100


def test_solve_builds_the_masks_once_and_reduces_once_per_scenario(monkeypatch):
    calls = {"row_masks": 0, "reduce_instance": 0}
    built = []

    def counted(name):
        original = getattr(cells_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = original(*args, **kwargs)
            if name == "row_masks":
                built.append(result)
            else:
                assert args[0] is built[-1]
            return result

        monkeypatch.setattr(cells_mod, name, wrapper)

    counted("row_masks")
    counted("reduce_instance")
    rng = random.Random(41)
    scenarios = []
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        a, b = planted_rows(rng, m, n)
        for row in a + b:  # silence some entries, so scenarios branch
            for j in range(n):
                if rng.random() < 0.3:
                    row[j] = NEG_INF
        calls.update(row_masks=0, reduce_instance=0)
        stats = solve(Matrix(a, cols=n), Matrix(b, cols=n), collect_stats=True).stats
        assert calls == {"row_masks": 1, "reduce_instance": stats.scenarios}
        scenarios.append(stats.scenarios)
    assert max(scenarios) >= 3
