import itertools
import random
import sys
from fractions import Fraction

from hypothesis import given, strategies as st

from conftest import bold_rows, non_real_example, scaled_rows, seq1
from tropsolve import NEG_INF, Matrix, max_pairs_per_row
from tropsolve.core import odot
from tropsolve.preprocess import maximum_matrix
from tropsolve.winseq import (
    classify_row,
    enumerate_win_sequences_counted,
    is_compatible,
    winning_pairs,
)

NI = "-inf"


def _classes(a, b):
    a_dom, b_dom = bold_rows(a, b)
    return [classify_row(a_dom, b_dom, i) for i in range(a.rows)]


def test_classify_running_example(running_example):
    a, b = running_example
    cls = _classes(a, b)
    assert cls[0].a_wins == {0, 1, 2} and cls[0].b_wins == {3}
    assert not cls[0].ties and not cls[0].dead
    assert cls[2].a_wins == set() and cls[2].b_wins == {3}
    assert cls[2].ties == {0, 1, 2}


def test_classify_dead_column():
    a = Matrix([[1, NI]])
    b = Matrix([[0, NI]])
    cls = _classes(a, b)[0]
    assert cls.a_wins == {0} and cls.dead == {1}


def test_winning_pairs_running_example(running_example):
    a, b = running_example
    cls = _classes(a, b)
    assert seq1(winning_pairs(cls[0])) == ((1, 4), (2, 4), (3, 4))
    assert seq1(winning_pairs(cls[1])) == ((1, 3), (1, 4), (2, 3), (2, 4))
    assert seq1(winning_pairs(cls[2])) == ((1, 1), (2, 2), (3, 3))


def test_winning_pairs_single_tie():
    from tropsolve.winseq import RowClassification

    cls = RowClassification(frozenset(), frozenset(), frozenset({4}), frozenset())
    assert winning_pairs(cls) == [(4, 4)]


def test_pair_count_bound():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = Matrix([[rng.choice([NEG_INF, Fraction(rng.randint(0, 3))]) for _ in range(n)]], cols=n)
        b = Matrix([[rng.choice([NEG_INF, Fraction(rng.randint(0, 3))]) for _ in range(n)]], cols=n)
        cls = _classes(a, b)[0]
        assert len(winning_pairs(cls)) <= max_pairs_per_row(n)


def test_compatible_running_example(running_example_m):
    m = running_example_m
    assert is_compatible(m, 0, (0, 3), 1, (0, 2))
    assert not is_compatible(m, 0, (0, 3), 1, (0, 3))


def test_compatible_neg_inf_absorbing():
    a, b = non_real_example(m21=2, m22=3)
    m = maximum_matrix(a, b)
    assert is_compatible(m, 0, (0, 1), 1, (2, 2))


def _enumerate(a, b):
    a_dom, b_dom = bold_rows(a, b)
    m = maximum_matrix(a, b)
    classes = [classify_row(a_dom, b_dom, i) for i in range(a.rows)]
    pairs = [winning_pairs(c) for c in classes]
    return m, pairs, enumerate_win_sequences_counted(scaled_rows(m), pairs)[0]


def test_enumerate_running_example(running_example):
    """The compatibility rule admits three sequences.  The acceptance fixture
    expects only the first two, but the third is genuinely compatible and its
    cell holds solutions such as (0, 0, 2, -1)."""
    a, b = running_example
    _, _, seqs = _enumerate(a, b)
    assert [seq1(s) for s in seqs] == [
        ((1, 4), (1, 3), (3, 3)),
        ((2, 4), (1, 3), (3, 3)),
        ((2, 4), (2, 3), (3, 3)),
    ]


def test_enumerate_three_by_three(three_by_three_example):
    a, b = three_by_three_example
    _, _, seqs = _enumerate(a, b)
    assert [seq1(s) for s in seqs] == [((2, 3), (1, 1), (2, 1))]


def test_enumerate_two_by_seven_contains_all_displayed(two_by_seven_example):
    a, b = two_by_seven_example
    _, _, seqs = _enumerate(a, b)
    displayed = [
        ((4, 1), (2, 1)), ((4, 3), (2, 1)), ((5, 1), (2, 1)), ((5, 3), (2, 1)),
        ((6, 1), (2, 1)), ((6, 3), (2, 1)), ((7, 1), (2, 1)), ((7, 3), (2, 1)),
    ]
    found = [seq1(s) for s in seqs]
    for ws in displayed:
        assert ws in found
    assert len(found) == 18  # the definition admits ten more


def test_enumerate_equals_product_filter():
    rng = random.Random(11)
    # -inf twice, so that some 4x5 draws stay under the product cap
    values = [
        NEG_INF, NEG_INF, Fraction(0), Fraction(1), Fraction(2),
        Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(5, 3),
    ]
    checked = 0
    for _ in range(600):
        m_rows, n = rng.randint(1, 4), rng.randint(1, 5)
        a = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m_rows)], cols=n)
        b = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m_rows)], cols=n)
        a_dom, b_dom = bold_rows(a, b)
        mx = maximum_matrix(a, b)
        classes = [classify_row(a_dom, b_dom, i) for i in range(m_rows)]
        pairs = [winning_pairs(c) for c in classes]
        total = 1
        for row in pairs:
            total *= len(row)
        if total == 0 or total > 50:
            continue
        checked += 1
        brute = [
            combo
            for combo in itertools.product(*pairs)
            if all(
                is_compatible(mx, i, combo[i], k, combo[k])
                for i in range(m_rows)
                for k in range(i + 1, m_rows)
            )
        ]
        assert enumerate_win_sequences_counted(scaled_rows(mx), pairs)[0] == sorted(brute)
    assert checked >= 200


def test_enumerate_deeper_than_recursion_limit():
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = depth + 50
    rows = limit + 1
    mx = [[0, 1]] * rows
    pairs = [[(1, 0)]] * rows
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        seqs, nodes = enumerate_win_sequences_counted(mx, pairs)
    finally:
        sys.setrecursionlimit(old)
    assert seqs == [((1, 0),) * rows]
    assert nodes == rows


def test_enumeration_count_bound(running_example):
    a, b = running_example
    mx, pairs, seqs = _enumerate(a, b)
    r = max_pairs_per_row(a.cols)
    assert len(seqs) <= r ** a.rows


def test_enumeration_counts_nodes(running_example):
    a, b = running_example
    a_dom, b_dom = bold_rows(a, b)
    mx = maximum_matrix(a, b)
    classes = [classify_row(a_dom, b_dom, i) for i in range(a.rows)]
    pairs = [winning_pairs(c) for c in classes]
    seqs, nodes = enumerate_win_sequences_counted(scaled_rows(mx), pairs)
    assert nodes >= len(seqs)


@given(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)
def test_compatibility_translation_invariant(row_shift, col_shift):
    base = Matrix([[3, 7, -1, 8], [6, 7, 5, 1], [1, 0, 1, 2]])
    shifted_rows = [
        [v + (row_shift if i == 1 else 0) + (col_shift if j == 2 else 0)
         for j, v in enumerate(base.row(i))]
        for i in range(base.rows)
    ]
    shifted = Matrix(shifted_rows)
    for first in [(0, 3), (1, 3), (2, 3)]:
        for second in [(0, 2), (0, 3), (1, 2), (1, 3)]:
            assert is_compatible(base, 0, first, 1, second) == is_compatible(
                shifted, 0, first, 1, second
            )


def test_necessity_for_real_valued_solutions():
    """Any solution with every row value real chooses pairwise-compatible pairs."""
    rng = random.Random(23)
    values = [NEG_INF, Fraction(0), Fraction(1), Fraction(2)]
    from tropsolve import matvec_maxplus

    for _ in range(300):
        m_rows, n = rng.randint(2, 3), rng.randint(2, 3)
        a = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m_rows)], cols=n)
        b = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m_rows)], cols=n)
        a_dom, b_dom = bold_rows(a, b)
        mx = maximum_matrix(a, b)
        classes = [classify_row(a_dom, b_dom, i) for i in range(m_rows)]
        for x in itertools.product([NEG_INF, Fraction(0), Fraction(1)], repeat=n):
            left = matvec_maxplus(a, x)
            if left != matvec_maxplus(b, x):
                continue
            if any(v is NEG_INF for v in left):
                continue
            chosen = []
            for i in range(m_rows):
                cand = None
                for p, q in winning_pairs(classes[i]):
                    if odot(mx[i, p], x[p]) == left[i] and odot(mx[i, q], x[q]) == left[i]:
                        cand = (p, q)
                        break
                assert cand is not None
                chosen.append(cand)
            for i in range(m_rows):
                for k in range(i + 1, m_rows):
                    assert is_compatible(mx, i, chosen[i], k, chosen[k])
