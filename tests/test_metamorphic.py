"""Metamorphic invariants of solve on seeded instances with rational entries.

Scaling every entry by a positive integer d scales every offset and every
constraint constant by d and changes nothing else.  With entries over the
denominators 2, 3 and 4, d = 12 makes the scaled instance integral, so the
exact cell stage runs with a common denominator above 1 on one side of the
comparison and with 1 on the other.  Adding a constant to one row on both
sides leaves every cell unchanged.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import planted_rows
from tropsolve import Matrix, emit, solve
from tropsolve.core import NegInfinity
from tropsolve.preprocess import reduce_instance

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
        if reduce_instance(a, b).scale > 1 and reduce_instance(a_d, b_d).scale == 1:
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
            assert [(c.plus, c.minus, c.constant, c.kind) for c in c1.constraints] == [
                (c.plus, c.minus, c.constant * d, c.kind) for c in c0.constraints
            ]
            assert (c1.cycles, c1.free_indices, c1.dimension_bound) == (
                c0.cycles,
                c0.free_indices,
                c0.dimension_bound,
            )
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
        assert moved.win_sequence_count == base.win_sequence_count
        assert emit(moved, "json") == emit(base, "json")
        cells_seen += len(base.cells)
    assert cells_seen >= INSTANCES
