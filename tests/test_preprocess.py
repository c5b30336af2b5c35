import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    OUTCOMES,
    col_mask,
    outcome,
    pair_masks,
    pair_scale,
    random_rows,
    ref_scaled_rows,
    scaled_pair,
)
from tropsolve import NEG_INF, Matrix, verify_solution
from tropsolve.core import DimensionMismatch
from tropsolve.preprocess import (
    ReducedInstance,
    columns,
    maximum_matrix,
    reduce_instance,
    row_masks,
)
from tropsolve.winseq import classify_row, winning_pairs

NI = "-inf"


def _reduce(a, b, dead=()):
    return reduce_instance(pair_masks(a, b), col_mask(dead))


def _matrix(rows, cols, scale):
    """int rows in units of 1/scale back to a Matrix."""
    return Matrix(
        [[NEG_INF if v is None else Fraction(v, scale) for v in row] for row in rows], cols=cols
    )


def _tuples(rows):
    return tuple(map(tuple, rows))


def _bold_pair(masks):
    """The bold pair that a_win, b_win and maximum hold: a bold entry is the
    row maximum where its side's bit is set and -inf elsewhere."""

    def side(wins):
        return tuple(
            tuple(v if w >> j & 1 else None for j, v in enumerate(row))
            for row, w in zip(masks.maximum, wins)
        )

    return side(masks.a_win), side(masks.b_win)


def test_bold_pair_elementwise():
    masks = pair_masks(Matrix([[1, 5]]), Matrix([[2, 3]]))
    expected_a, expected_b = scaled_pair(Matrix([[NI, 5]]), Matrix([[2, NI]]))
    assert masks.a_win == (0b10,) and masks.b_win == (0b01,)
    assert masks.maximum == _tuples(scaled_pair(Matrix([[2, 5]]), Matrix([[2, 5]]))[0])
    assert _bold_pair(masks) == (_tuples(expected_a), _tuples(expected_b))


def test_bold_pair_running_example_is_fixed(running_example):
    a, b = scaled_pair(*running_example)
    masks = row_masks(a, b, 4)
    assert _bold_pair(masks) == (_tuples(a), _tuples(b))


def test_bold_pair_equal_keeps_both():
    a, _ = scaled_pair(Matrix([[1, NI], [0, 2]]), Matrix([[1, NI], [0, 2]]))
    masks = row_masks(a, a, 2)
    assert masks.a_win == masks.b_win == (0b01, 0b11)
    assert masks.maximum == _tuples(a)
    assert _bold_pair(masks) == (_tuples(a), _tuples(a))


def test_row_masks_bits():
    # columns: tie, A wins, B wins, both -inf, A alone finite
    masks = row_masks([[1, 5, 0, None, 2]], [[1, 3, 4, None, None]], 5)
    assert masks.maximum == ((1, 5, 4, None, 2),)
    assert _bold_pair(masks) == (((1, 5, None, None, 2),), ((1, None, 4, None, None),))
    assert masks.same == (0b01001,)
    assert masks.a_win == (0b10011,)
    assert masks.b_win == (0b00101,)


def test_row_masks_shape_checks():
    with pytest.raises(DimensionMismatch, match="rows do not have 2 entries"):
        row_masks([[0]], [[0]], 2)
    with pytest.raises(DimensionMismatch, match="differ in shape"):
        row_masks([[0]], [[0], [1]], 1)
    with pytest.raises(DimensionMismatch, match="differ in shape"):
        row_masks([[0, 1]], [[0]], 2)
    assert row_masks([], [], 3).same == ()


OUT_OF_RANGE = [1 << 5, 1 << 1, -1, 0b101]
NOT_INTS = [True, False, 0.0, "0", None, Fraction(0), [0], frozenset()]


@pytest.mark.parametrize("dead", OUT_OF_RANGE, ids=[f"dead{k}" for k in range(len(OUT_OF_RANGE))])
def test_reduce_rejects_dead_columns_out_of_range(dead):
    masks = row_masks([[0], [1]], [[0], [None]], 1)
    with pytest.raises(ValueError, match=r"outside range\(1\)"):
        reduce_instance(masks, dead)


@pytest.mark.parametrize("dead", NOT_INTS, ids=[f"dead{k}" for k in range(len(NOT_INTS))])
def test_reduce_rejects_dead_columns_that_are_not_ints(dead):
    masks = row_masks([[0, 1]], [[0, None]], 2)
    with pytest.raises(TypeError, match="dead must be an int column mask"):
        reduce_instance(masks, dead)


def test_reduce_keeps_the_partition_with_dead_columns():
    masks = row_masks([[0]], [[0]], 1)
    red = reduce_instance(masks, 0b1)
    assert outcome(red) == "trivial"
    assert columns(red.forced) == [0] and not red.free
    red = reduce_instance(masks)
    assert outcome(red) == "unconstrained"
    assert columns(red.free) == [0] and not red.forced


def test_maximum_matrix(running_example, running_example_m, empty_case_example):
    a, b = running_example
    assert maximum_matrix(a, b) == running_example_m
    a13, b13 = empty_case_example
    assert maximum_matrix(a13, b13) == Matrix(
        [[3, 7, -1, 8], [6, 7, 5, 1], [-9, 0, 0, -4]]
    )
    assert maximum_matrix(a, a) == a


def test_maximum_matrix_shape_check():
    with pytest.raises(DimensionMismatch):
        maximum_matrix(Matrix([[1]]), Matrix([[1, 2]]))


def test_reduce_forcing_row():
    red = _reduce(Matrix([[NI, NI]]), Matrix([[0, NI]]))
    assert columns(red.forced) == [0]
    assert columns(red.free) == [1]
    assert outcome(red) == "unconstrained"


def test_reduce_running_example_untouched(running_example):
    a, b = running_example
    red = _reduce(a, b)
    assert outcome(red) == "reduced"
    assert red.rows == (0, 1, 2)
    assert red.live == 0b1111
    assert not red.forced and not red.free


def test_reduce_identical_rows_drop():
    red = _reduce(Matrix([[0, 1]]), Matrix([[0, 1]]))
    assert outcome(red) == "unconstrained"
    assert columns(red.free) == [0, 1]


def test_reduce_trivial_only():
    red = _reduce(Matrix([[5]]), Matrix([[0]]))
    assert outcome(red) == "trivial"
    assert columns(red.forced) == [0]


def test_reduce_cascade():
    # forcing column 0 leaves row 2 one-sided, forcing column 1 as well
    a = Matrix([[5, NI], [NI, NI]])
    b = Matrix([[0, NI], [NI, 3]])
    red = _reduce(a, b)
    assert outcome(red) == "trivial"
    assert columns(red.forced) == [0, 1]


def test_reduced_instance_rows_have_pairs(running_example):
    a, b = running_example
    masks = pair_masks(a, b)
    red = reduce_instance(masks)
    assert red.rows
    for i in red.rows:
        cls = classify_row(masks, i, red.live)
        assert winning_pairs(cls)


def _grid_points(n, values):
    import itertools

    pool = [NEG_INF] + [Fraction(v) for v in values]
    return itertools.product(pool, repeat=n)


@pytest.mark.parametrize("seed", range(40))
def test_reduction_preserves_solutions(seed):
    rng = random.Random(seed)
    values = [NEG_INF, Fraction(0), Fraction(1), Fraction(2)]
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    a = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
    b = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
    masks = pair_masks(a, b)
    red = reduce_instance(masks)
    live = columns(red.live)
    # the reduced instance: the bold pair on the kept rows and live columns
    a_red, b_red = (
        [[side[i][j] for j in live] for i in red.rows] for side in _bold_pair(masks)
    )
    for x in _grid_points(n, [0, 1, 2]):
        direct = verify_solution(a, b, x)
        if outcome(red) == "trivial":
            expected = all(v is NEG_INF for v in x)
        else:
            expected = all(x[j] is NEG_INF for j in columns(red.forced))
            if expected and outcome(red) == "reduced":
                sub = [x[j] for j in live]
                scale, cols = pair_scale(a, b), len(live)
                expected = verify_solution(
                    _matrix(a_red, cols, scale), _matrix(b_red, cols, scale), sub
                )
        assert direct == expected, (a.to_rows(), b.to_rows(), x)


@pytest.mark.parametrize("seed", range(20))
def test_reduction_terminates_and_partitions(seed):
    rng = random.Random(1000 + seed)
    values = [NEG_INF, Fraction(0), Fraction(1)]
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    a = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
    b = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
    red = _reduce(a, b)
    forced, free, live = columns(red.forced), columns(red.free), columns(red.live)
    cover = set(forced) | set(free) | set(live)
    assert cover == set(range(n))
    assert len(forced) + len(free) + len(live) == n


def _reference_reduction(a, b, dead):
    """Delete the dead columns, reduce what is left and map it back.

    What is left of the Matrix pair is scaled in the unit of the whole pair,
    so that both sides of the comparison share one unit.
    """
    keep = [j for j in range(a.cols) if j not in dead]
    scale = pair_scale(a, b)
    a0, b0 = (
        Matrix([[m[i, j] for j in keep] for i in range(m.rows)], cols=len(keep))
        for m in (a, b)
    )
    red = reduce_instance(row_masks(ref_scaled_rows(a0, scale), ref_scaled_rows(b0, scale), len(keep)))
    return replace(
        red,
        live=col_mask(keep[c] for c in columns(red.live)),
        forced=col_mask(dead) | col_mask(keep[c] for c in columns(red.forced)),
        free=col_mask(keep[c] for c in columns(red.free)),
    )


def test_dead_columns_equal_deleted_columns():
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(600):
        m, n = rng.randint(0, 4), rng.randint(1, 5)
        a = Matrix(random_rows(rng, m, n), cols=n)
        b = Matrix(random_rows(rng, m, n), cols=n)
        dead = frozenset(j for j in range(n) if rng.random() < 0.3)
        if len(dead) == n:
            continue
        red = _reduce(a, b, dead)
        assert red == _reference_reduction(a, b, dead), (a, b, dead)
        outcomes.add(outcome(red))
    assert outcomes == set(OUTCOMES)


def test_every_scenario_of_one_masks_matches_a_fresh_reduction():
    """One RowMasks serves every dead set: scenarios share nothing else."""
    rng = random.Random(77)
    for _ in range(60):
        m, n = rng.randint(0, 4), rng.randint(1, 5)
        a, b = (Matrix(random_rows(rng, m, n), cols=n) for _ in "ab")
        masks = pair_masks(a, b)
        full = (1 << n) - 1
        assert reduce_instance(masks, full) == ReducedInstance((), 0, full, 0)
        for bits in range(full):
            dead = columns(bits)
            assert reduce_instance(masks, bits) == _reference_reduction(a, b, dead), (a, b, dead)


def _columns_by_low_bit(mask):
    """The per-set-bit walk columns used before the 64-bit chunks, as the reference."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_columns_matches_the_low_bit_walk():
    rng = random.Random(2600)
    for width in range(301):
        full = (1 << width) - 1
        masks = [0, full, 1 << width, full ^ (1 << rng.randrange(width + 1))]
        masks += [rng.getrandbits(width) for _ in range(8)]
        masks += [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(4)]
        for mask in masks:
            assert columns(mask) == _columns_by_low_bit(mask), (width, mask)


def test_columns_is_linear_in_the_mask_width():
    started = time.perf_counter()
    assert columns((1 << 200_000) - 1) == list(range(200_000))
    assert time.perf_counter() - started < 1.0
