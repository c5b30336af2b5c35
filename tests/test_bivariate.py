import random
from fractions import Fraction

import pytest

from conftest import scaled_rows, seq0
from tropsolve import solve_equations, sub_specialize, substitute
from tropsolve.bivariate import (
    EQ,
    LEQ,
    Constraint,
    PotentialAssignment,
    build_systems,
    eq,
    is_sub_special,
    leq,
    remove_and_enlarge,
)
from tropsolve.preprocess import bold_pair, maximum_matrix
from tropsolve.winseq import classify_row

NI = "-inf"


def rows_as_tuples(constraints):
    return {(c.plus, c.minus, c.constant, c.kind) for c in constraints}


# --- the displayed coefficient matrices of the worked example (1-based) ---

C1_ROWS = [eq(0, 3, -5), eq(0, 2, 1)]  # x1-x4-5=0, x1-x3+1=0

D1_ROWS = [
    leq(1, 0, 4),    # (-1, 1, 0, 0 |  4)
    leq(2, 0, -2),   # (-1, 0, 1, 0 | -2)
    leq(1, 0, 1),    # (-1, 1, 0, 0 |  1)
    leq(3, 0, -5),   # (-1, 0, 0, 1 | -5)
    leq(1, 2, -1),   # ( 0, 1,-1, 0 | -1)
    leq(3, 2, 1),    # ( 0, 0,-1, 1 |  1)
]

D2_ROWS = [
    leq(1, 0, 4),
    leq(2, 0, -2),
    leq(3, 0, -5),
    leq(1, 2, -1),
    leq(3, 2, 1),
]


def _systems_for(a, b, sequence_1based):
    a_dom, b_dom = bold_pair(a, b)
    mx = maximum_matrix(a_dom, b_dom)
    classes = [classify_row(a_dom, b_dom, i) for i in range(a.rows)]
    return build_systems(seq0(sequence_1based), scaled_rows(mx), classes)


def test_build_systems_first_sequence(running_example):
    a, b = running_example
    eqs, ineqs = _systems_for(a, b, [(1, 4), (1, 3), (3, 3)])
    assert rows_as_tuples(eqs) == rows_as_tuples(C1_ROWS)
    # all seven row-by-row normal forms; D1_ROWS differs in two entries (its
    # origin drops the x1-x3 row and carries -2 where the formula gives -4)
    expected = D1_ROWS + [leq(2, 0, -4), leq(0, 2, 0)]
    expected.remove(leq(2, 0, -2))
    assert rows_as_tuples(ineqs) == rows_as_tuples(expected)
    assert len(ineqs) == 7


def test_build_systems_empty_case(empty_case_example):
    a, b = empty_case_example
    eqs, _ = _systems_for(a, b, [(1, 4), (1, 3), (3, 4)])
    assert rows_as_tuples(eqs) == rows_as_tuples(
        [eq(0, 3, -5), eq(0, 2, 1), eq(2, 3, 4)]
    )


def test_build_systems_tie_pair_no_equation(running_example):
    a, b = running_example
    eqs, ineqs = _systems_for(a, b, [(1, 4), (1, 3), (3, 3)])
    anchors = {c.minus for c in ineqs}
    assert 2 in anchors  # the tie row anchors its inequalities at column 3
    assert all(c.kind == EQ for c in eqs) and len(eqs) == 2


def test_remove_and_enlarge_empty_case():
    # the inconsistent component {1,3,4} seeds the forced set; the first-row
    # inequality x2 - x1 + 4 <= 0 then forces x2
    constraints = [leq(1, 0, 4)]
    remaining, omega = remove_and_enlarge(constraints, {0, 2, 3})
    assert remaining == []
    assert omega == {0, 1, 2, 3}


def test_remove_and_enlarge_plus_side_dropped():
    remaining, omega = remove_and_enlarge([leq(7, 3, 1)], {7})
    assert remaining == [] and omega == {7}


def test_remove_and_enlarge_chain():
    remaining, omega = remove_and_enlarge([leq(1, 0, 0), leq(2, 1, 0)], {0})
    assert remaining == [] and omega == {0, 1, 2}


def test_remove_and_enlarge_equation_propagates():
    remaining, omega = remove_and_enlarge([eq(5, 2, 3)], {5})
    assert remaining == [] and omega == {2, 5}


def test_remove_and_enlarge_fixed_point_bound():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 6)
        cons = [
            leq(*rng.sample(range(n), 2), rng.randint(-3, 3)) for _ in range(rng.randint(0, 8))
        ]
        omega0 = set(rng.sample(range(n), rng.randint(0, n)))
        remaining, omega = remove_and_enlarge(cons, omega0)
        assert omega0 <= omega
        for c in remaining:
            assert c.plus not in omega and c.minus not in omega


def test_solve_equations_gaussian_family():
    pa = solve_equations(C1_ROWS, 4)
    # same affine family as the displayed solution x3 = x4 + 6, x1 = x4 + 5
    assert pa.representative == (0, 1, 0, 0)
    assert pa.offset[2] - pa.offset[3] == 6
    assert pa.offset[0] - pa.offset[3] == 5
    assert not pa.inconsistent_roots


def test_solve_equations_inconsistent_cycle():
    pa = solve_equations([eq(0, 3, -5), eq(0, 2, 1), eq(2, 3, 4)], 4)
    assert pa.inconsistent_roots == {0}
    assert pa.components[0] == (0, 2, 3)


def test_solve_equations_empty():
    pa = solve_equations([], 3)
    assert pa.representative == (0, 1, 2)
    assert pa.offset == (0, 0, 0)


def test_solve_equations_inconsistency_witness():
    """An inconsistent component always contains a signed cycle with nonzero sum."""
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 5)
        eqs = [
            eq(*rng.sample(range(n), 2), rng.randint(-2, 2))
            for _ in range(rng.randint(1, 6))
        ]
        pa = solve_equations(eqs, n)
        for root in pa.inconsistent_roots:
            members = set(pa.components[root])
            # independent replay: BFS potentials must hit a contradiction
            potential = {min(members): Fraction(0)}
            frontier = [min(members)]
            adjacency = {}
            for c in eqs:
                adjacency.setdefault(c.plus, []).append((c.minus, -c.constant))
                adjacency.setdefault(c.minus, []).append((c.plus, c.constant))
            contradiction = False
            while frontier:
                v = frontier.pop()
                for w, delta in adjacency.get(v, []):
                    value = potential[v] + delta
                    if w in potential:
                        if potential[w] != value:
                            contradiction = True
                    else:
                        potential[w] = value
                        frontier.append(w)
            assert contradiction


def test_substitute_yields_displayed_normal_form():
    # anchor the component at x4 exactly as the displayed solution does
    pa = PotentialAssignment(
        representative=(3, 1, 3, 3),
        offset=(Fraction(5), Fraction(0), Fraction(6), Fraction(0)),
        inconsistent_roots=frozenset(),
        components={3: (0, 2, 3), 1: (1,)},
    )
    rows, flagged = substitute(D2_ROWS, pa)
    assert not flagged
    eqs, residue, forced = sub_specialize(rows)
    assert not eqs and not forced
    assert residue == [leq(1, 3, -1)]  # x2 - x4 - 1 <= 0


def test_substitute_tautology_dropped():
    pa = solve_equations([eq(0, 2, -1)], 3)  # x1 = x3 - 1
    rows, flagged = substitute([leq(0, 2, -1)], pa)
    assert rows == [] and not flagged


def test_substitute_flags_infeasible():
    pa = solve_equations([eq(0, 2, -1)], 3)
    rows, flagged = substitute([leq(0, 2, 9)], pa)
    assert rows == [] and flagged == {0}


def test_sub_specialize_displayed_matrices():
    eqs, residue, forced = sub_specialize(D1_ROWS)
    assert not eqs and not forced
    assert residue == D2_ROWS


def test_sub_specialize_opposite_rows_zero_width():
    eqs, residue, forced = sub_specialize([leq(0, 1, 3), leq(1, 0, -3)])
    assert eqs == [eq(0, 1, 3)]
    assert residue == [] and not forced


def test_sub_specialize_negative_two_cycle():
    eqs, residue, forced = sub_specialize([leq(0, 1, 1), leq(1, 0, 1)])
    assert forced == {0, 1}
    assert not eqs


def test_sub_specialize_negative_long_cycle():
    rows = [leq(1, 0, 1), leq(2, 1, 1), leq(0, 2, 1)]
    _, _, forced = sub_specialize(rows)
    assert forced == {0, 1, 2}


def test_sub_specialize_row_count_contract():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(2, 5)
        rows = [
            leq(*rng.sample(range(n), 2), Fraction(rng.randint(-4, 4)))
            for _ in range(rng.randint(1, 10))
        ]
        eqs, residue, forced = sub_specialize(rows)
        assert 2 * len(eqs) + len(residue) <= len(rows)
        if not forced:
            assert is_sub_special(residue)


def test_sub_specialize_preserves_real_solutions():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(2, 4)
        rows = [
            leq(*rng.sample(range(n), 2), Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(1, 7))
        ]
        eqs, residue, forced = sub_specialize(rows)
        for _ in range(20):
            point = [Fraction(rng.randint(-6, 6)) for _ in range(n)]
            sat_t = all(point[c.plus] - point[c.minus] + c.constant <= 0 for c in rows)
            sat_en = all(
                point[c.plus] - point[c.minus] + c.constant == 0 for c in eqs
            ) and all(
                point[c.plus] - point[c.minus] + c.constant <= 0 for c in residue
            ) and not forced
            assert sat_t == sat_en


def test_sub_specialize_keeps_tightest_bound():
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(2, 4)
        rows = [
            leq(*rng.sample(range(n), 2), Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(1, 7))
        ]
        eqs, residue, forced = sub_specialize(rows)
        out = {(c.plus, c.minus): c.constant for c in residue}
        for c in rows:
            key = (c.plus, c.minus)
            if key in out:
                assert out[key] >= c.constant


def test_is_sub_special():
    assert is_sub_special(D2_ROWS)
    assert not is_sub_special(D1_ROWS)  # duplicate variable part
    four_row = [leq(0, 2, 3), leq(2, 0, -8), leq(2, 1, -4), leq(2, 3, 0)]
    assert is_sub_special(four_row)
    assert is_sub_special([])
    # opposite rows must be adjacent and strictly concatenable
    assert not is_sub_special([leq(0, 1, 3), leq(2, 1, 0), leq(1, 0, -3)])
    assert not is_sub_special([leq(0, 1, 3), leq(1, 0, -3)])  # zero width


def test_constraint_validation():
    with pytest.raises(Exception):
        Constraint(1, 1, Fraction(0), LEQ)
    with pytest.raises(Exception):
        Constraint(0, 1, Fraction(0), "weird")
