"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 1 and 4 contain one clause each that is unattainable: the expected
win-sequence lists baked into those fixtures are under-enumerated relative to
the compatibility rule itself (each failure message carries an explicit
witness solution).  Those clauses are asserted faithfully and fail; every
other clause passes.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from conftest import (
    omega_assignment,
    pair_masks,
    running_reference_cells,
    seq0,
    seq1,
    two_by_seven_reference_cells,
)
from test_bivariate import C1_ROWS, D1_ROWS, D2_ROWS
from tropsolve import (
    NEG_INF,
    GridSpec,
    Matrix,
    cell_membership,
    cross_validate,
    emit,
    grid_solutions,
    matvec_maxplus,
    max_pairs_per_row,
    principal_solution,
    sample_cell,
    solve,
    solve_equations,
    sub_specialize,
    substitute,
    verify_solution,
)
from tropsolve.bivariate import OffsetUnionFind, leq
from tropsolve.reductions import AffineInstance, affine_holds, solve_affine, solve_hetero
from tropsolve.cells import _solve_sequence
from tropsolve.preprocess import reduce_instance
from tropsolve.winseq import classify_row


def _finish(criterion: str, failures: list[str], started: float, limit: float):
    elapsed = time.perf_counter() - started
    if elapsed >= limit:
        failures.append(f"runtime {elapsed:.2f}s exceeded {limit}s")
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} ({elapsed:.2f}s)"
          + (f" :: {'; '.join(failures)}" if failures else ""))
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


def _cells_set_equal(mine, reference, samples, seed, box=12):
    for point in sample_cell(mine, samples, seed=seed, box=box):
        if not cell_membership(reference, point):
            return False, f"computed point {point} escapes the reference cell"
    for point in sample_cell(reference, samples, seed=seed + 1, box=box):
        if not cell_membership(mine, point):
            return False, f"reference point {point} escapes the computed cell"
    return True, ""


def test_criterion_1_running_example(running_example):
    started = time.perf_counter()
    failures: list[str] = []
    a, b = running_example
    result = solve(a, b)

    listed = [((1, 4), (1, 3), (3, 3)), ((2, 4), (1, 3), (3, 3))]
    found = [seq1(c.win_sequence) for c in result.cells]
    if result.win_sequence_count != 2 or found != listed:
        failures.append(
            f"clause 'exactly p = 2 win sequences': solver reports p = "
            f"{result.win_sequence_count} with {found}; the extra sequence "
            "((2,4),(2,3),(3,3)) is compatible by definition and its cell "
            "contains the verified solution (0, 0, 2, -1), so the expected "
            "p = 2 cannot be produced by a complete solver"
        )

    ref1, ref2 = running_reference_cells()
    by_ws = {c.win_sequence: c for c in result.cells}
    for name, ref in (("cell 1", ref1), ("cell 2", ref2)):
        mine = by_ws.get(ref.win_sequence)
        if mine is None:
            failures.append(f"{name} missing")
            continue
        ok, why = _cells_set_equal(mine, ref, samples=500, seed=11)
        if not ok:
            failures.append(f"{name} set-equality: {why}")

    grid = GridSpec.of(range(-2, 11))
    report = cross_validate(a, b, grid, result, samples_per_cell=50, seed=2)
    if not report.ok:
        failures.append(
            f"oracle containment: {len(report.missed)} missed, {len(report.invalid)} invalid"
        )
    for x in grid_solutions(a, b, grid):
        for ref, mine_ws in ((ref1, ref1.win_sequence), (ref2, ref2.win_sequence)):
            mine = by_ws.get(mine_ws)
            if mine is not None and cell_membership(mine, x) != cell_membership(ref, x):
                failures.append(f"grid point {x} separates computed and reference cells")
                break

    _finish("1 (running example)", failures, started, 5.0)


def test_criterion_2_empty_case(empty_case_example):
    started = time.perf_counter()
    failures: list[str] = []
    a, b = empty_case_example
    result = solve(a, b)
    if not result.trivial_only or result.cells:
        failures.append("expected trivial_only with no cells")

    # the inconsistent-component path: its lone win sequence forces all of [4]
    masks = pair_masks(a, b)
    red = reduce_instance(masks)
    classes = [classify_row(masks, i, red.live) for i in red.rows]
    omega, _, residue = omega_assignment(_solve_sequence(
        seq0([(1, 4), (1, 3), (3, 4)]), [masks.maximum[i] for i in red.rows], classes, 4, {}
    ))
    if omega != {0, 1, 2, 3}:
        failures.append(f"inconsistent-component path produced omega {omega}")
    if residue:
        failures.append("no residual constraints expected once everything is forced")

    _finish("2 (empty case)", failures, started, 1.0)


def test_criterion_3_three_by_three(three_by_three_example):
    started = time.perf_counter()
    failures: list[str] = []
    a, b = three_by_three_example
    result = solve(a, b)
    if result.win_sequence_count != 1 or [seq1(c.win_sequence) for c in result.cells] != [
        ((2, 3), (1, 1), (2, 1))
    ]:
        failures.append("expected the single win sequence ((2,3),(1,1),(2,1))")
    cell = result.cells[0]
    diag = {tuple(Fraction(t) for _ in range(3)) for t in (-2, 0, 1, 2)}
    for point in diag:
        if not cell_membership(cell, point):
            failures.append(f"diagonal point {point} rejected")
    grid = GridSpec.of([0, 1, 2])
    oracle = set(grid_solutions(a, b, grid))
    from itertools import product

    cell_points = {
        x
        for x in product(grid.points(), repeat=3)
        if cell_membership(cell, x)
    }
    if oracle != cell_points:
        failures.append(f"oracle and cell disagree: {oracle ^ cell_points}")

    _finish("3 (3x3 example)", failures, started, 1.0)


def test_criterion_4_two_by_seven(two_by_seven_example):
    started = time.perf_counter()
    failures: list[str] = []
    a, b = two_by_seven_example
    result = solve(a, b)

    references = two_by_seven_reference_cells()
    listed = list(references.keys())
    found = [seq1(c.win_sequence) for c in result.cells]
    if found != listed:
        extra = [ws for ws in found if ws not in listed]
        failures.append(
            f"clause 'exactly 8 win sequences': solver reports p = "
            f"{result.win_sequence_count}; the {len(extra)} additional sequences "
            f"(e.g. {extra[0]}) are compatible by definition; witness solution "
            "(0, 1, 0, 5, 0, 2, -1) lies in the ((4,3),(2,6)) cell but has "
            "x1 - x2 = -1 while all eight expected cells pin x1 - x2 = 2"
        )

    by_ws = {seq1(c.win_sequence): c for c in result.cells}
    for ws, ref in references.items():
        mine = by_ws.get(ws)
        if mine is None:
            failures.append(f"expected cell {ws} not computed")
            continue
        ok, why = _cells_set_equal(mine, ref, samples=200, seed=17)
        if not ok:
            failures.append(f"cell {ws} set-equality: {why}")

    bad_params = [
        (seq1(c.win_sequence), len(c.parameters()))
        for c in result.cells
        if len(c.parameters()) != 5
    ]
    if bad_params:
        failures.append(f"parameter counts differing from 5: {bad_params}")

    _finish("4 (2x7 example)", failures, started, 10.0)


def test_criterion_5_intermediate_fixtures():
    started = time.perf_counter()
    failures: list[str] = []

    pa = solve_equations(C1_ROWS, 4)
    if pa.offset[2] - pa.offset[3] != 6 or pa.offset[0] - pa.offset[3] != 5:
        failures.append("Gaussian step does not reproduce x3 = x4 + 6, x1 = x4 + 5")
    if pa.inconsistent_roots:
        failures.append("unexpected inconsistency")

    eqs, residue, forced = sub_specialize(D1_ROWS)
    if eqs or forced or set(residue) != set(D2_ROWS):
        failures.append(f"sub-specialization row set differs: {residue}")

    anchored = OffsetUnionFind(4)  # anchored at x4, as the displayed solution is
    anchored.representative = [3, 1, 3, 3]
    anchored.offset = [Fraction(5), Fraction(0), Fraction(6), Fraction(0)]
    rows, flagged = substitute(D2_ROWS, anchored)
    eqs2, residue2, forced2 = sub_specialize(rows)
    if flagged or eqs2 or forced2 or residue2 != [leq(1, 3, -1)]:
        failures.append(f"substitution did not yield x2 - x4 - 1 <= 0: {residue2}")

    _finish("5 (intermediate fixtures)", failures, started, 1.0)


def test_criterion_6_property_suite(monkeypatch):
    started = time.perf_counter()
    failures: list[str] = []

    import tropsolve.cells as cells_mod

    original = cells_mod.sub_specialize
    violations: list[str] = []

    def checked(rows):
        eqs, residue, forced = original(rows)
        if 2 * len(eqs) + len(residue) > len(rows):
            violations.append(f"row-count contract broken on {rows}")
        return eqs, residue, forced

    monkeypatch.setattr(cells_mod, "sub_specialize", checked)

    rng = random.Random(2024)
    values = [NEG_INF, Fraction(0), Fraction(1), Fraction(2)]
    grid = GridSpec.of([0, 1, 2, 3])
    instances = 0
    while instances < 500 and not failures:
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
        b = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
        instances += 1
        result = solve(a, b)
        if result.win_sequence_count > max_pairs_per_row(n) ** m:
            failures.append(f"win-sequence bound violated at instance {instances}")
        for cell in result.cells:
            if len(cell.parameters()) > cell.dimension_bound:
                failures.append(f"parameter bound violated at instance {instances}")
        report = cross_validate(a, b, grid, result, samples_per_cell=10, seed=instances)
        if not report.ok:
            failures.append(
                f"instance {instances} ({a.to_rows()}, {b.to_rows()}): "
                f"{len(report.missed)} missed, {len(report.invalid)} invalid"
            )
    failures.extend(violations)
    if instances < 500:
        failures.append(f"only {instances} instances executed")

    _finish("6 (random property suite)", failures, started, 60.0)


def test_criterion_7_residuation_suite():
    started = time.perf_counter()
    failures: list[str] = []
    rng = random.Random(777)
    for trial in range(1000):
        a = Matrix(
            [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)],
            cols=3,
        )
        b = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
        star = principal_solution(a, b)
        if not all(l <= r for l, r in zip(matvec_maxplus(a, star), b)):
            failures.append(f"A (x) x# > b at trial {trial}")
            break
        below = tuple(
            NEG_INF if rng.random() < 0.2 else s - Fraction(rng.randint(0, 4))
            for s in star
        )
        if not all(l <= r for l, r in zip(matvec_maxplus(a, below), b)):
            failures.append(f"point below x# fails at trial {trial}")
            break
        j = rng.randrange(3)
        above = [s - Fraction(rng.randint(0, 3)) for s in star]
        above[j] = star[j] + Fraction(rng.randint(1, 4))
        if all(l <= r for l, r in zip(matvec_maxplus(a, above), b)):
            failures.append(f"point above x# unexpectedly solves at trial {trial}")
            break

    _finish("7 (residuation suite)", failures, started, 5.0)


def test_criterion_8_reduction_suites():
    started = time.perf_counter()
    failures: list[str] = []
    rng = random.Random(31337)
    values = [NEG_INF, Fraction(0), Fraction(1), Fraction(2), Fraction(-1)]

    from tropsolve import leq_to_eq

    for trial in range(1000):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
        b = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
        x = [rng.choice(values) for _ in range(n)]
        merged, rhs = leq_to_eq(a, b)
        holds = all(
            l <= r for l, r in zip(matvec_maxplus(a, x), matvec_maxplus(b, x))
        )
        if holds != verify_solution(merged, rhs, x):
            failures.append(f"one-sided law fails at trial {trial}")
            break

    for trial in range(50):
        s, n, m = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        c = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(s)], cols=n)
        d = Matrix([[rng.choice(values) for _ in range(m)] for _ in range(s)], cols=m)
        result = solve_hetero(c, d)
        for cell in result.cells:
            for z in sample_cell(cell, 5, seed=trial, box=6):
                if matvec_maxplus(c, z[:n]) != matvec_maxplus(d, z[n:]):
                    failures.append(f"two-block round trip fails at trial {trial}")
                    break

    for trial in range(50):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        inst = AffineInstance(
            Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n),
            Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n),
            tuple(rng.choice(values) for _ in range(m)),
            tuple(rng.choice(values) for _ in range(m)),
        )
        pinned = solve_affine(inst)
        for cell in pinned.cells:
            for x in cell.sample(5, seed=trial, box=6):
                if not affine_holds(inst, x):
                    failures.append(f"affine round trip fails at trial {trial}")
                    break

    _finish("8 (reduction suites)", failures, started, 30.0)


def test_criterion_9_determinism(
    running_example, empty_case_example, three_by_three_example, two_by_seven_example
):
    started = time.perf_counter()
    failures: list[str] = []
    fixtures = [
        running_example,
        empty_case_example,
        three_by_three_example,
        two_by_seven_example,
    ]
    rng = random.Random(5150)
    values = [NEG_INF, Fraction(0), Fraction(1), Fraction(2)]
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        fixtures.append(
            (
                Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n),
                Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n),
            )
        )
    first = "".join(emit(solve(a, b), "json") for a, b in fixtures)
    second = "".join(emit(solve(a, b), "json") for a, b in fixtures)
    if first.encode() != second.encode():
        failures.append("structured output differs between runs")

    _finish("9 (determinism)", failures, started, 30.0)
