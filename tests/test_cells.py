import math
import random
import time
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest

from conftest import (
    NI,
    col_mask,
    dimension_bound,
    make_cell,
    omega_assignment,
    sequence_systems,
    pair_scale,
    planted_rows,
    ref_scaled,
    ref_unit,
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
    solve_equations,
    verify_solution,
)
import tropsolve.cells as cells_mod
from test_golden import planted_ints
from tropsolve.bivariate import Constraint, OffsetUnionFind, eq, leq
from tropsolve.cells import _cell_key, _solve_sequence, _unconstrained_key
from tropsolve.core import DimensionMismatch, TropicalError
from tropsolve.preprocess import ReducedInstance, reduce_instance
from tropsolve.reductions import pin_variable
from tropsolve.winseq import (
    RowClassification,
    classify_row,
    enumerate_win_sequences_counted,
    winning_pairs,
)


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


def test_sampler_falls_back_to_the_greatest_point_below_zero():
    # t2 - t1 + 5 <= 0 rules out rejection at box=1 while t1 and t2 are
    # alive; t3 - t2 + 2 <= 0 joins t3 to their component, and t5 is a
    # component of its own.  The fallback is the greatest point <= 0,
    # (0, -5, -7) and 0, shifted by one draw in [-1, 1] per component.
    cell = make_cell(
        5, [(1, 1, 0), (2, 2, "1/2"), (3, 3, 0), (4, 1, 2), (5, 5, 0)], [(2, 1, 5), (3, 2, 2)]
    )
    assert cell.scale == 2 and cell.parameters() == (0, 1, 2, 4)
    for seed in range(20):
        vals = cells_mod._feasible_values(cell, [0, 1, 2, 4], random.Random(seed), 1)
        shift = vals[0]
        assert shift in (-2, 0, 2) and vals[4] in (-2, 0, 2)
        assert vals == {0: shift, 1: shift - 10, 2: shift - 14, 4: vals[4]}
    fallbacks = 0
    for seed in range(40):
        first = sample_cell(cell, 2, seed=seed, box=1)[1]
        assert cell_membership(cell, first)
        x1, x2, x3, x4, x5 = first
        if NEG_INF not in (x1, x2, x3):
            fallbacks += 1
            assert x1 in (-1, 0, 1) and x5 in (NEG_INF, -1, 0, 1)
            assert (x2 - Fraction(1, 2) - x1, x3 - x1, x4 - x1) == (-5, -7, 2)
    assert fallbacks >= 5, fallbacks


@pytest.mark.parametrize(
    "box", [1, 2, 3, 10, 2**62, 10**30], ids=["1", "2", "3", "10", "2**62", "10**30"]
)
def test_feasible_values_draws_as_randint(box):
    # With no rows the first draw of each parameter is taken.  The sampler
    # inlines Random._randbelow_with_getrandbits, so its draws, and the
    # generator state after them, must be randint(-box, box)'s.
    cell = make_cell(4, [(1, 1, 0), (2, 2, "1/3"), (3, 2, 0), (4, 4, 0)], [])
    assert cell.scale == 3 and cell.parameters() == (0, 1, 3)
    for seed in range(300):
        reference, rng = random.Random(seed), random.Random(seed)
        expected = {p: reference.randint(-box, box) * 3 for p in (0, 1, 3)}
        got = cells_mod._feasible_values(cell, [0, 1, 3], rng, box)
        assert (got, rng.getrandbits(32)) == (expected, reference.getrandbits(32)), (
            f"seed {seed}, box {box}: the sampler's getrandbits draws are no longer "
            "Random.randint(-box, box)'s; has Random._randbelow changed in this Python?"
        )


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
    """Every root sequence of the pair with its _solve_sequence result, as
    (omega, assignment, residue)."""
    masks = pair_masks(a, b)
    red = reduce_instance(masks)
    classes = [classify_row(masks, i, red.live) for i in red.rows]
    maxima = [masks.maximum[i] for i in red.rows]
    sequences, _ = enumerate_win_sequences_counted(maxima, [winning_pairs(c) for c in classes])
    if systems is None:
        return {s: omega_assignment(_solve_sequence(s, maxima, classes, a.cols, {}))
                for s in sequences}
    return {s: omega_assignment(_solve_sequence(s, maxima, classes, a.cols, systems))
            for s in sequences}


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
    scale = ref_unit(
        [o for _, o in cell.assignments.values()] + [c.constant for c in cell.constraints]
    )
    assigned = tuple((v, p, ref_scaled(o, scale)) for v, (p, o) in cell.assignments.items())
    rows = tuple((c.plus, c.minus, ref_scaled(c.constant, scale)) for c in cell.constraints)
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


def random_system(rng):
    """(eqs, ineqs, nvars) around a hidden potential, with planted features.

    Rows are tight or slack at the potential.  Planted: an equation cycle
    with a nonzero residual (inconsistent), an inequality inside an equation
    component that the component violates (flagged), an inequality cycle of
    negative weight, a zero-width opposite pair, and a chain whose
    zero-width pairs appear one round after another, each only once the
    previous merge has put its two rows over one representative.
    """
    n = rng.randint(3, 9)
    pot = [rng.randint(-4, 4) for _ in range(n)]

    def tight(p, m):  # x_p - x_m + c = 0 at the potential
        return pot[m] - pot[p]

    eqs, ineqs = [], []
    for _ in range(rng.randint(0, n // 2)):
        p, m = rng.sample(range(n), 2)
        eqs.append(eq(p, m, tight(p, m)))
    for _ in range(rng.randint(0, n)):
        p, m = rng.sample(range(n), 2)
        ineqs.append(leq(p, m, tight(p, m) - rng.randint(0, 3)))
    if rng.random() < 0.25:
        a, b, c = rng.sample(range(n), 3)
        eqs += [eq(a, b, tight(a, b)), eq(b, c, tight(b, c)), eq(c, a, tight(c, a) + 1)]
    if rng.random() < 0.3:
        p, m = rng.sample(range(n), 2)
        eqs.append(eq(p, m, tight(p, m)))
        ineqs.append(leq(p, m, tight(p, m) + 1))
    if rng.random() < 0.3:
        cycle = rng.sample(range(n), rng.randint(2, min(n, 4)))
        # one row tightened by 1: the cycle's weight, minus its constants, is -1
        pairs = list(zip(cycle[1:] + cycle[:1], cycle))
        ineqs += [leq(p, m, tight(p, m) + (k == 0)) for k, (p, m) in enumerate(pairs)]
    if rng.random() < 0.4:
        p, m = rng.sample(range(n), 2)
        ineqs += [leq(p, m, tight(p, m)), leq(m, p, tight(m, p))]
    if rng.random() < 0.4:
        chain = rng.sample(range(n), rng.randint(3, n))
        v0, v1 = chain[:2]
        ineqs += [leq(v0, v1, tight(v0, v1)), leq(v1, v0, tight(v1, v0))]
        for i in range(2, len(chain)):
            a, b, c = chain[i - 2], chain[i - 1], chain[i]
            ineqs += [leq(c, a, tight(c, a)), leq(b, c, tight(b, c))]
    ineqs = [row for row in ineqs if row[0] != row[1]]
    rng.shuffle(eqs)
    rng.shuffle(ineqs)
    return eqs, ineqs, n


def test_rounds_are_bounded(monkeypatch):
    # each round that does not return forces a live representative or merges
    # two live components, so there are at most nvars + 1 rounds; every round
    # calls sub_specialize once
    calls = [0]
    original = cells_mod.sub_specialize

    def counted(t):
        calls[0] += 1
        return original(t)

    monkeypatch.setattr(cells_mod, "sub_specialize", counted)
    most = 0
    for k in range(1500):
        eqs, ineqs, n = random_system(random.Random(f"solve-sequence:{k}"))
        calls[0] = 0
        # the system handed in as the cached part of a one-row sequence
        _solve_sequence(((0, 0),), None, (), n, {(0, (0, 0)): (eqs, ineqs)})
        assert calls[0] <= n + 1 <= 2 * n, (eqs, ineqs)
        most = max(most, calls[0])
    assert most >= 4


def test_a_sequence_that_never_settles_fails_at_its_round_bound(monkeypatch):
    # sub_specialize stubbed to hand back, every round, an equation the
    # union-find already holds: no round forces or merges anything, so only
    # the bound ends the loop (the stub stops it at 100 calls regardless)
    calls = [0]

    def stuck(t):
        calls[0] += 1
        if calls[0] > 100:
            raise RuntimeError("sub_specialize called more than 100 times")
        return [(0, 1, 0)], [], 0

    monkeypatch.setattr(cells_mod, "sub_specialize", stuck)
    nvars = 3
    with pytest.raises(cells_mod.RoundBoundExceeded, match="did not settle in 7 rounds"):
        _solve_sequence(((0, 0),), None, (), nvars, {(0, (0, 0)): ([(0, 1, 0)], [])})
    assert calls[0] == 2 * nvars + 1
    assert issubclass(cells_mod.RoundBoundExceeded, TropicalError)


def test_solve_never_snapshots_the_union_find(monkeypatch):
    # the union-find is read as it stands: solve copies none of its lists
    calls = [0]
    snapshot = OffsetUnionFind.snapshot

    def counted(self):
        calls[0] += 1
        return snapshot(self)

    monkeypatch.setattr(OffsetUnionFind, "snapshot", counted)
    rng = random.Random(77)
    kept = 0
    for a, b in (planted_ints(rng, rng.randint(2, 5), rng.randint(3, 8), 0.3, True)
                 for _ in range(40)):
        kept += len(solve(Matrix(a), Matrix(b)).cells)
    assert calls[0] == 0 and kept >= 100
    assert solve_equations([eq(0, 1, 2)], 2).snapshot() == ((0, 0), (0, 2), 0)  # x1 = x0 + 2
    assert calls[0] == 1


def _pair_systems(rng, sequence, n):
    """Rows and classifications for a sequence of arbitrary pairs.

    Every entry is finite.  Half the systems draw their entries at random,
    so pairs that close a cycle of columns are often inconsistent; the
    other half hold the hidden potential exactly at the pair's columns and
    at or just below it elsewhere, so the hidden potential solves them, many
    rows are tight there and opposite rows of zero width merge classes in
    later rounds.  The dead columns are drawn outside each pair; the other
    columns go into ties, since build_systems reads only the union of a
    row's three classes.
    """
    pot = [rng.randint(-3, 3) for _ in range(n)] if rng.random() < 0.5 else None
    rows, classes = [], []
    for pair in sequence:
        if pot is None:
            rows.append([rng.randint(-3, 3) for _ in range(n)])
        else:
            rows.append([-x - (j not in pair and rng.random() < 0.25) for j, x in enumerate(pot)])
        dead = col_mask(j for j in range(n) if j not in pair and rng.random() < 0.3)
        classes.append(RowClassification(0, 0, ((1 << n) - 1) & ~dead))
    return rows, classes


def test_bound_is_the_component_count_after_the_own_equations():
    rng = random.Random(2323)
    seen = Counter()
    for _ in range(3000):
        n = rng.randint(1, 8)
        sequence = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.3:
                e = rng.randrange(n)
                sequence.append((e, e))  # a tie pair: no equation
            else:
                sequence.append((rng.randrange(n), rng.randrange(n)))
        sequence = tuple(sequence)
        rows, classes = _pair_systems(rng, sequence, n)
        uf, dead, residue, bound = _solve_sequence(sequence, rows, classes, n, {})
        assert bound == dimension_bound(sequence, n)
        eqs, _ = sequence_systems(sequence, rows, classes)
        own = solve_equations(eqs, n)
        assert bound == len(set(own.representative))
        seen["ties"] += any(p == q for p, q in sequence)
        seen["inconsistent"] += bool(own.inconsistent_roots)
        # a pair inside one class: more pairs with p != q than merges
        seen["cycles"] += sum(p != q for p, q in sequence) > n - bound
        seen["later_merges"] += len(set(uf.representative)) < bound
    floors = {"ties": 1000, "cycles": 300, "later_merges": 200, "inconsistent": 150}
    assert all(seen[name] >= floor for name, floor in floors.items()), seen


def _unconstrained_key_per_column(free, num_vars):
    """The key read with one bit test per column, as the reference."""
    neg = tuple(v for v in range(num_vars) if not free >> v & 1)
    return ((), neg, tuple((v, v, 0) for v in range(num_vars) if free >> v & 1), (), num_vars)


def test_unconstrained_key_matches_the_per_column_test():
    rng = random.Random(2700)
    for width in range(301):
        full = (1 << width) - 1
        sparse = rng.getrandbits(width) & rng.getrandbits(width)
        for free in [0, full, rng.getrandbits(width), sparse]:
            assert _unconstrained_key(free, width) == _unconstrained_key_per_column(free, width)
    started = time.perf_counter()
    key = _unconstrained_key(((1 << 200_000) - 1) ^ (1 << 7), 200_000)
    assert time.perf_counter() - started < 0.5
    assert key[1] == (7,) and len(key[2]) == 199_999


def _cell_key_per_column(sequence, uf, dead, residue, bound, red):
    """The key read with one test per column, as the reference."""
    rep, off = uf.representative, uf.offset
    neg = tuple(v for v in range(len(rep)) if dead >> rep[v] & 1 or red.forced >> v & 1)
    assigned = tuple((v, rep[v], off[v]) for v in range(len(rep)) if v not in neg)
    if not assigned:
        return None
    return sequence, neg, assigned, tuple(residue), bound


def test_cell_key_matches_the_per_column_reading():
    # with nothing dead and nothing forced the key zips the union-find's
    # lists; otherwise it tests every column; both read the same key
    rng = random.Random(3000)
    seen = Counter()
    for _ in range(2000):
        n = rng.randint(1, 8)
        sequence = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 5)))
        paired = col_mask(c for pair in sequence for c in pair)
        # the scenario's forced columns, outside every pair and every row
        forced = 0 if rng.random() < 0.5 else rng.getrandbits(n) & ~paired
        rows, classes = _pair_systems(rng, sequence, n)
        classes = [RowClassification(0, 0, c.ties & ~forced) for c in classes]
        red = ReducedInstance(tuple(range(len(sequence))), (1 << n) - 1 & ~forced, forced, 0)
        uf, dead, residue, bound = _solve_sequence(sequence, rows, classes, n, {})
        key = _cell_key(sequence, uf, dead, residue, bound, red)
        assert key == _cell_key_per_column(sequence, uf, dead, residue, bound, red)
        seen["fast"] += not dead and not forced
        seen["dead"] += bool(dead)
        seen["forced"] += bool(forced)
        seen["collapsed"] += key is None
    floors = {"fast": 500, "dead": 300, "forced": 400, "collapsed": 100}
    assert all(seen[name] >= floor for name, floor in floors.items()), seen
