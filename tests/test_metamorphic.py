"""Metamorphic invariants of solve on seeded instances with rational entries.

Scaling every entry by a positive integer d scales every offset and every
constraint constant by d and changes nothing else.  With entries over the
denominators 2, 3 and 4, d = 12 makes the scaled instance integral, so the
exact cell stage runs with a common denominator above 1 on one side of the
comparison and with 1 on the other.  Adding a constant to one row on both
sides leaves every cell unchanged.  The solution set is a tropical cone:
closed under componentwise max and under adding one scalar to every finite
coordinate.  Permuting the rows, or swapping A and B, leaves the system and
so its solution set unchanged: the cells may come in another order and with
other win sequences, but the set of their geometric keys and the number p of
win sequences stay the same.  Permuting the columns renames the variables:
mapped back, with each class based on its smallest variable, the cells
give the same set of keys, and p stays the same.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import pair_scale, planted_rows, ref_oplus
from tropsolve import Matrix, cell_membership, emit, sample_cell, solve, verify_solution
from tropsolve.cells import geometric_key
from tropsolve.core import NEG_INF, NegInfinity

INSTANCES = 60


def instances(seed):
    rng = random.Random(seed)
    out = []
    for _ in range(INSTANCES):
        n = rng.randint(3, 5)
        a, b = planted_rows(rng, rng.randint(2, 4), n)
        out.append((Matrix(a, cols=n), Matrix(b, cols=n)))
    return out


def _map_rows(matrix, fn):
    return Matrix(
        [[fn(i, v) for v in matrix.row(i)] for i in range(matrix.rows)], cols=matrix.cols
    )


def _times(matrix, d):
    return _map_rows(matrix, lambda i, v: v if isinstance(v, NegInfinity) else v * d)


@pytest.mark.parametrize("d", [12, 5])
def test_scaling_scales_offsets_and_constants(d):
    mixed_scales = 0
    cells_seen = 0
    for a, b in instances(4100 + d):
        a_d, b_d = _times(a, d), _times(b, d)
        base = solve(a, b)
        scaled = solve(a_d, b_d)
        if pair_scale(a, b) > 1 and pair_scale(a_d, b_d) == 1:
            mixed_scales += 1
        assert scaled.win_sequence_count == base.win_sequence_count
        assert scaled.globally_forced == base.globally_forced
        assert scaled.trivial_only == base.trivial_only
        assert len(scaled.cells) == len(base.cells)
        for c0, c1 in zip(base.cells, scaled.cells):
            assert c1.win_sequence == c0.win_sequence
            assert c1.neg_inf == c0.neg_inf
            assert c1.parameters() == c0.parameters()
            assert c1.assignments == {v: (p, o * d) for v, (p, o) in c0.assignments.items()}
            assert [(c.plus, c.minus, c.constant) for c in c1.constraints] == [
                (c.plus, c.minus, c.constant * d) for c in c0.constraints
            ]
            assert c1.dimension_bound == c0.dimension_bound
        cells_seen += len(base.cells)
    assert cells_seen >= INSTANCES  # the family is not trivial
    if d == 12:
        assert mixed_scales >= INSTANCES // 2  # scale > 1 against scale == 1


def test_row_shift_leaves_cells_unchanged():
    rng = random.Random(4200)
    cells_seen = 0
    for a, b in instances(4200):
        row = rng.randrange(a.rows)
        shift = rng.choice([Fraction(5, 6), Fraction(-7, 3), Fraction(4)])

        def bump(i, v):
            return v + shift if i == row and not isinstance(v, NegInfinity) else v

        base = solve(a, b)
        moved = solve(_map_rows(a, bump), _map_rows(b, bump))
        assert moved.cells == base.cells
        # each cell is in its own lowest unit: equal cells hash equal too
        assert [hash(c) for c in moved.cells] == [hash(c) for c in base.cells]
        assert moved.win_sequence_count == base.win_sequence_count
        assert emit(moved, "json") == emit(base, "json")
        cells_seen += len(base.cells)
    assert cells_seen >= INSTANCES


def test_tropical_cone_closure():
    rng = random.Random(4300)
    shifts = (Fraction(0), Fraction(5, 6), Fraction(-7, 3), Fraction(4))
    for k in range(40):
        m, n = rng.randint(2, 5), rng.randint(3, 6)
        a, b = (Matrix(rows, cols=n) for rows in planted_rows(rng, m, n))
        result = solve(a, b)
        assert result.cells  # the planted solution lies in some cell
        points = [
            x for j, cell in enumerate(result.cells) for x in sample_cell(cell, 4, seed=k + j)
        ]
        for _ in range(25):
            x, y = rng.choice(points), rng.choice(points)
            shift = rng.choice(shifts)
            z = tuple(
                v if isinstance(v, NegInfinity) else v + shift
                for v in (ref_oplus(p, q) for p, q in zip(x, y))
            )
            assert verify_solution(a, b, z), (a, b, z)
            assert any(cell_membership(cell, z) for cell in result.cells), (a, b, z)


REORDER_VALUES = (NEG_INF, -1, 0, Fraction(1, 2), Fraction(-7, 3), 2, 3)


def _geometry(a, b):
    result = solve(a, b)
    return result.win_sequence_count, {geometric_key(cell) for cell in result.cells}


@pytest.mark.parametrize("swap", [False, True], ids=["permute-rows", "swap-a-b"])
def test_row_permutation_and_side_swap_keep_the_cells(swap):
    rng = random.Random(4400 + swap)
    cells_seen = 0
    for _ in range(300):
        m, n = rng.randint(0, 4), rng.randint(1, 5)
        a, b = (
            [[rng.choice(REORDER_VALUES) for _ in range(n)] for _ in range(m)]
            for _ in range(2)
        )
        if swap:
            a2, b2 = b, a
        else:
            order = rng.sample(range(m), m)
            a2, b2 = [a[i] for i in order], [b[i] for i in order]
        p, keys = _geometry(Matrix(a, cols=n), Matrix(b, cols=n))
        assert _geometry(Matrix(a2, cols=n), Matrix(b2, cols=n)) == (p, keys), (a, b)
        cells_seen += len(keys)
    assert cells_seen >= 300  # the family is not trivial


def _renamed_key(cell, names):
    """The cell's point set with variable v renamed names[v], as a canonical key.

    A parameter is renamed after the smallest renamed variable of its class,
    and the class's offsets and the constants of its rows are shifted by that
    variable's offset, so the key does not depend on which variable solve
    named the class after.  The numbers are Fractions, sorted.
    """
    unit = Fraction(1, cell.scale)
    base = {}  # param -> (renamed representative, its offset)
    for v, p, o in cell.assigned:
        base[p] = min(base.get(p, (names[v], o)), (names[v], o))
    assigned = sorted((names[v], base[p][0], (o - base[p][1]) * unit) for v, p, o in cell.assigned)
    rows = sorted(
        (base[plus][0], base[minus][0], (c - base[plus][1] + base[minus][1]) * unit)
        for plus, minus, c in cell.rows
    )
    return tuple(sorted(names[v] for v in cell.neg_inf)), tuple(assigned), tuple(rows)


def test_column_permutation_renames_the_cells():
    rng = random.Random(4500)
    cells_seen = moved = 0
    for _ in range(300):
        m, n = rng.randint(0, 4), rng.randint(1, 5)
        a, b = (
            [[rng.choice(REORDER_VALUES) for _ in range(n)] for _ in range(m)]
            for _ in range(2)
        )
        order = rng.sample(range(n), n)  # column k of the permuted pair is column order[k]
        base = solve(Matrix(a, cols=n), Matrix(b, cols=n))
        permuted = solve(
            Matrix([[row[j] for j in order] for row in a], cols=n),
            Matrix([[row[j] for j in order] for row in b], cols=n),
        )
        identity = list(range(n))
        keys = {_renamed_key(cell, identity) for cell in base.cells}
        assert permuted.win_sequence_count == base.win_sequence_count, (a, b, order)
        assert {_renamed_key(cell, order) for cell in permuted.cells} == keys, (a, b, order)
        cells_seen += len(keys)
        moved += order != identity and bool(keys)
    assert cells_seen >= 300 and moved >= 100  # the family is not trivial
