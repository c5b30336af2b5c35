import random
from fractions import Fraction

import pytest

from tropsolve import NEG_INF, Matrix, verify_solution
from tropsolve.core import DimensionMismatch
from tropsolve.preprocess import Verdict, bold_pair, maximum_matrix, reduce_instance
from tropsolve.winseq import classify_row, winning_pairs

NI = "-inf"


def test_bold_pair_elementwise():
    a_dom, b_dom = bold_pair(Matrix([[1, 5]]), Matrix([[2, 3]]))
    assert a_dom == Matrix([[NI, 5]])
    assert b_dom == Matrix([[2, NI]])


def test_bold_pair_running_example_is_fixed(running_example):
    a, b = running_example
    a_dom, b_dom = bold_pair(a, b)
    assert a_dom == a and b_dom == b


def test_bold_pair_equal_keeps_both():
    a = Matrix([[1, NI], [0, 2]])
    a_dom, b_dom = bold_pair(a, a)
    assert a_dom == a and b_dom == a


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
    red = reduce_instance(Matrix([[NI, NI]]), Matrix([[0, NI]]))
    assert red.forced_neg_inf == {0}
    assert red.free_cols == {1}
    assert red.verdict is Verdict.ALL_ROWS_GONE


def test_reduce_running_example_untouched(running_example):
    a, b = running_example
    red = reduce_instance(a, b)
    assert red.verdict is Verdict.REDUCED
    assert red.row_origin == (0, 1, 2)
    assert red.col_origin == (0, 1, 2, 3)
    assert not red.forced_neg_inf and not red.free_cols


def test_reduce_identical_rows_drop():
    red = reduce_instance(Matrix([[0, 1]]), Matrix([[0, 1]]))
    assert red.verdict is Verdict.ALL_ROWS_GONE
    assert red.free_cols == {0, 1}


def test_reduce_trivial_only():
    red = reduce_instance(Matrix([[5]]), Matrix([[0]]))
    assert red.verdict is Verdict.TRIVIAL_ONLY
    assert red.forced_neg_inf == {0}


def test_reduce_cascade():
    # forcing column 0 leaves row 2 one-sided, forcing column 1 as well
    a = Matrix([[5, NI], [NI, NI]])
    b = Matrix([[0, NI], [NI, 3]])
    red = reduce_instance(a, b)
    assert red.verdict is Verdict.TRIVIAL_ONLY
    assert red.forced_neg_inf == {0, 1}


def test_reduced_instance_rows_have_pairs(running_example):
    a, b = running_example
    red = reduce_instance(a, b)
    for i in range(red.max_matrix.rows):
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
    red = reduce_instance(a, b)
    live = list(red.col_origin)
    for x in _grid_points(n, [0, 1, 2]):
        direct = verify_solution(a, b, x)
        if red.verdict is Verdict.TRIVIAL_ONLY:
            expected = all(v is NEG_INF for v in x)
        else:
            expected = all(x[j] is NEG_INF for j in red.forced_neg_inf)
            if expected and red.verdict is Verdict.REDUCED:
                sub = [x[j] for j in live]
                expected = verify_solution(red.a_dom, red.b_dom, sub)
        assert direct == expected, (a.to_rows(), b.to_rows(), x)


@pytest.mark.parametrize("seed", range(20))
def test_reduction_terminates_and_partitions(seed):
    rng = random.Random(1000 + seed)
    values = [NEG_INF, Fraction(0), Fraction(1)]
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    a = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
    b = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
    red = reduce_instance(a, b)
    cover = set(red.forced_neg_inf) | set(red.free_cols) | set(red.col_origin)
    assert cover == set(range(n))
    assert len(red.forced_neg_inf) + len(red.free_cols) + len(red.col_origin) == n
