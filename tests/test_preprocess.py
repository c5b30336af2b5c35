import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import bold_rows, pair_masks, pair_scale, random_rows, scaled_pair
from tropsolve import NEG_INF, Matrix, verify_solution
from tropsolve.core import DimensionMismatch, scaled_entries
from tropsolve.preprocess import Verdict, maximum_matrix, reduce_instance, row_masks
from tropsolve.winseq import classify_row, winning_pairs

NI = "-inf"


def _reduce(a, b, dead=()):
    return reduce_instance(pair_masks(a, b), dead=dead)


def _matrix(rows, cols, scale):
    """int rows in units of 1/scale back to a Matrix."""
    return Matrix(
        [[NEG_INF if v is None else Fraction(v, scale) for v in row] for row in rows], cols=cols
    )


def _tuples(rows):
    return tuple(map(tuple, rows))


def test_bold_pair_elementwise():
    a_dom, b_dom = bold_rows(Matrix([[1, 5]]), Matrix([[2, 3]]))
    expected_a, expected_b = scaled_pair(Matrix([[NI, 5]]), Matrix([[2, NI]]))
    assert a_dom == _tuples(expected_a)
    assert b_dom == _tuples(expected_b)


def test_bold_pair_running_example_is_fixed(running_example):
    a, b = scaled_pair(*running_example)
    masks = row_masks(a, b, 4)
    assert masks.a_bold == _tuples(a) and masks.b_bold == _tuples(b)


def test_bold_pair_equal_keeps_both():
    a, _ = scaled_pair(Matrix([[1, NI], [0, 2]]), Matrix([[1, NI], [0, 2]]))
    masks = row_masks(a, a, 2)
    assert masks.a_bold == masks.b_bold == _tuples(a)


def test_row_masks_bits():
    # columns: tie, A wins, B wins, both -inf, A alone finite
    masks = row_masks([[1, 5, 0, None, 2]], [[1, 3, 4, None, None]], 5)
    assert masks.a_bold == ((1, 5, None, None, 2),)
    assert masks.b_bold == ((1, None, 4, None, None),)
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


@pytest.mark.parametrize("dead", [[5], [1], [-1], [0, 2]])
def test_reduce_rejects_dead_columns_out_of_range(dead):
    masks = row_masks([[0], [1]], [[0], [None]], 1)
    with pytest.raises(ValueError, match=r"not in range\(1\)"):
        reduce_instance(masks, dead=dead)


@pytest.mark.parametrize("dead", [[True], [False], [0.0], ["0"], [None], [Fraction(0)]])
def test_reduce_rejects_dead_columns_that_are_not_ints(dead):
    masks = row_masks([[0, 1]], [[0, None]], 2)
    with pytest.raises(TypeError, match="dead columns must be ints"):
        reduce_instance(masks, dead=dead)


def test_reduce_keeps_the_partition_with_dead_columns():
    masks = row_masks([[0]], [[0]], 1)
    red = reduce_instance(masks, dead=[0])
    assert red.verdict is Verdict.TRIVIAL_ONLY
    assert red.forced_neg_inf == {0} and not red.free_cols
    red = reduce_instance(masks)
    assert red.verdict is Verdict.ALL_ROWS_GONE
    assert red.free_cols == {0} and not red.forced_neg_inf


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
    assert red.forced_neg_inf == {0}
    assert red.free_cols == {1}
    assert red.verdict is Verdict.ALL_ROWS_GONE


def test_reduce_running_example_untouched(running_example):
    a, b = running_example
    red = _reduce(a, b)
    assert red.verdict is Verdict.REDUCED
    assert red.row_origin == (0, 1, 2)
    assert red.col_origin == (0, 1, 2, 3)
    assert not red.forced_neg_inf and not red.free_cols


def test_reduce_identical_rows_drop():
    red = _reduce(Matrix([[0, 1]]), Matrix([[0, 1]]))
    assert red.verdict is Verdict.ALL_ROWS_GONE
    assert red.free_cols == {0, 1}


def test_reduce_trivial_only():
    red = _reduce(Matrix([[5]]), Matrix([[0]]))
    assert red.verdict is Verdict.TRIVIAL_ONLY
    assert red.forced_neg_inf == {0}


def test_reduce_cascade():
    # forcing column 0 leaves row 2 one-sided, forcing column 1 as well
    a = Matrix([[5, NI], [NI, NI]])
    b = Matrix([[0, NI], [NI, 3]])
    red = _reduce(a, b)
    assert red.verdict is Verdict.TRIVIAL_ONLY
    assert red.forced_neg_inf == {0, 1}


def test_reduced_instance_rows_have_pairs(running_example):
    a, b = running_example
    red = _reduce(a, b)
    for i in range(len(red.scaled_max)):
        cls = classify_row(red.a_dom, red.b_dom, i)
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
    red = _reduce(a, b)
    live = list(red.col_origin)
    for x in _grid_points(n, [0, 1, 2]):
        direct = verify_solution(a, b, x)
        if red.verdict is Verdict.TRIVIAL_ONLY:
            expected = all(v is NEG_INF for v in x)
        else:
            expected = all(x[j] is NEG_INF for j in red.forced_neg_inf)
            if expected and red.verdict is Verdict.REDUCED:
                sub = [x[j] for j in live]
                scale, cols = pair_scale(a, b), len(live)
                expected = verify_solution(
                    _matrix(red.a_dom, cols, scale), _matrix(red.b_dom, cols, scale), sub
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
    cover = set(red.forced_neg_inf) | set(red.free_cols) | set(red.col_origin)
    assert cover == set(range(n))
    assert len(red.forced_neg_inf) + len(red.free_cols) + len(red.col_origin) == n


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
    red = reduce_instance(row_masks(scaled_entries(a0, scale), scaled_entries(b0, scale), len(keep)))
    return replace(
        red,
        col_origin=tuple(keep[c] for c in red.col_origin),
        forced_neg_inf=frozenset(dead) | {keep[c] for c in red.forced_neg_inf},
        free_cols=frozenset(keep[c] for c in red.free_cols),
    )


def test_dead_columns_equal_deleted_columns():
    rng = random.Random(2024)
    verdicts = set()
    for _ in range(600):
        m, n = rng.randint(0, 4), rng.randint(1, 5)
        a = Matrix(random_rows(rng, m, n), cols=n)
        b = Matrix(random_rows(rng, m, n), cols=n)
        dead = frozenset(j for j in range(n) if rng.random() < 0.3)
        if len(dead) == n:
            continue
        red = _reduce(a, b, dead)
        assert red == _reference_reduction(a, b, dead), (a, b, dead)
        verdicts.add(red.verdict)
    assert verdicts == set(Verdict)
