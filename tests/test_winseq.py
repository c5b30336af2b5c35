import itertools
import random
import sys
from fractions import Fraction

from hypothesis import given, strategies as st

from conftest import col_mask, non_real_example, ref_odot, row_classes, scaled_rows, seq1
from tropsolve import NEG_INF, Matrix, max_pairs_per_row
from tropsolve.preprocess import RowMasks, columns, maximum_matrix
from tropsolve.winseq import (
    RowClassification,
    classify_row,
    enumerate_win_sequences_counted,
    winning_pairs,
)

NI = "-inf"


def is_compatible(max_matrix, i, first, k, second):
    """Whether the pair of row k is compatible with the pair of row i < k.

    The readable reference for the enumerator's minor test: checks
    m_{i kappa} + m_{k iota} <= m_{i iota} + m_{k kappa} for the up to four
    column combinations, with -inf absorbing; a minor that is -inf on both
    sides passes.  The test runs on the matrix's ints.
    """
    row_i, row_k = max_matrix.ints[i], max_matrix.ints[k]
    for iota in set(first):
        for kappa in set(second):
            lhs, rhs = (row_i[kappa], row_k[iota]), (row_i[iota], row_k[kappa])
            if None not in lhs and (None in rhs or sum(lhs) > sum(rhs)):
                return False
    return True


def dead_columns(cls, n):
    """The columns of range(n) in none of the row's three classes."""
    return columns(((1 << n) - 1) & ~(cls.a_wins | cls.b_wins | cls.ties))


def test_classify_running_example(running_example):
    a, b = running_example
    cls = row_classes(a, b)
    assert columns(cls[0].a_wins) == [0, 1, 2] and columns(cls[0].b_wins) == [3]
    assert not cls[0].ties and not dead_columns(cls[0], 4)
    assert columns(cls[2].a_wins) == [] and columns(cls[2].b_wins) == [3]
    assert columns(cls[2].ties) == [0, 1, 2]


def test_classify_dead_column():
    a = Matrix([[1, NI]])
    b = Matrix([[0, NI]])
    cls = row_classes(a, b)[0]
    assert columns(cls.a_wins) == [0] and dead_columns(cls, 2) == [1]


def test_winning_pairs_running_example(running_example):
    a, b = running_example
    cls = row_classes(a, b)
    assert seq1(winning_pairs(cls[0])) == ((1, 4), (2, 4), (3, 4))
    assert seq1(winning_pairs(cls[1])) == ((1, 3), (1, 4), (2, 3), (2, 4))
    assert seq1(winning_pairs(cls[2])) == ((1, 1), (2, 2), (3, 3))


def test_winning_pairs_single_tie():
    cls = RowClassification(0, 0, col_mask([4]))
    assert winning_pairs(cls) == [(4, 4)]


def ref_classify_row(masks, i, live):
    """The frozenset classification the mask one replaced: the classes
    a_wins, b_wins, ties and dead, each a frozenset of column indices."""
    a_win = masks.a_win[i] & live
    b_win = masks.b_win[i] & live
    ties = a_win & b_win
    dead = ((1 << masks.n) - 1) ^ (a_win | b_win)
    return tuple(frozenset(columns(mask)) for mask in (a_win ^ ties, b_win ^ ties, ties, dead))


def ref_winning_pairs(a_wins, b_wins, ties):
    """winning_pairs on frozenset classes."""
    pairs = [(p, q) for p in a_wins for q in b_wins]
    pairs.extend((e, e) for e in ties)
    return sorted(pairs)


def test_mask_classes_match_the_frozenset_classes():
    """classify_row and winning_pairs on masks against the frozenset versions,
    over random row masks (a_win and b_win overlapping only on the same
    columns, as row_masks builds them) and random live masks."""
    rng = random.Random(24)
    seen = {"a": 0, "b": 0, "tie": 0, "dead": 0}
    for _ in range(2000):
        n, m = rng.randint(1, 9), rng.randint(1, 3)
        same, a_win, b_win = [], [], []
        for _ in range(m):
            s = aw = bw = 0
            for j in range(n):
                kind = rng.choice(("a", "b", "tie", "both -inf"))
                if kind == "tie":
                    s |= 1 << j
                    aw |= 1 << j
                    bw |= 1 << j
                elif kind == "both -inf":
                    s |= 1 << j
                elif kind == "a":
                    aw |= 1 << j
                else:
                    bw |= 1 << j
            same.append(s)
            a_win.append(aw)
            b_win.append(bw)
        masks = RowMasks(n, ((None,) * n,) * m, tuple(same), tuple(a_win), tuple(b_win))
        live = rng.getrandbits(n)
        for i in range(m):
            cls = classify_row(masks, i, live)
            ref = ref_classify_row(masks, i, live)
            got = (cls.a_wins, cls.b_wins, cls.ties, col_mask(dead_columns(cls, n)))
            assert got == tuple(col_mask(part) for part in ref), (masks, i, live)
            assert winning_pairs(cls) == ref_winning_pairs(*ref[:3]), (masks, i, live)
            for key, part in zip(seen, ref):
                seen[key] += bool(part)
    assert min(seen.values()) >= 500, seen


def test_pair_count_bound():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = Matrix([[rng.choice([NEG_INF, Fraction(rng.randint(0, 3))]) for _ in range(n)]], cols=n)
        b = Matrix([[rng.choice([NEG_INF, Fraction(rng.randint(0, 3))]) for _ in range(n)]], cols=n)
        cls = row_classes(a, b)[0]
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
    m = maximum_matrix(a, b)
    classes = row_classes(a, b)
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
        mx = maximum_matrix(a, b)
        classes = row_classes(a, b)
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


def test_no_rows_give_the_empty_sequence():
    assert enumerate_win_sequences_counted([], []) == ([()], 0)


def test_empty_pair_list_at_any_depth():
    rng = random.Random(5)
    for depth in range(4):
        for _ in range(40):
            rows = [[None if rng.random() < 0.3 else rng.randint(-4, 4) for _ in range(5)]
                    for _ in range(4)]
            pairs = [
                sorted({(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randint(0, 5))})
                for _ in range(4)
            ]
            pairs[depth] = []
            sequences, nodes = enumerate_win_sequences_counted(rows, pairs)
            assert sequences == []
            if depth == 0:
                assert nodes == 0


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
    mx = maximum_matrix(a, b)
    classes = row_classes(a, b)
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


# (row i, row k, compatible): pair (0, 0) of row i against pair (1, 1) of
# row k, so the one minor is m_i1 + m_k0 <= m_i0 + m_k1, i.e. key(1) <= key(0)
# with key(c) = m_ic - m_kc
MINOR_CASES = [
    ([0, 1], [2, 3], True),  # tied keys: the minor holds with equality
    ([0, 2], [2, 3], False),  # key(1) > key(0)
    ([1, 1], [2, 3], True),  # key(1) < key(0)
    ([NI, 1], [2, 3], False),  # m_i0 = -inf
    ([0, 1], [2, NI], False),  # m_k1 = -inf
    ([NI, 1], [2, NI], False),  # both right-hand entries -inf
    ([0, NI], [2, NI], True),  # m_i1 = -inf: the left side is -inf
    ([NI, 1], [NI, 3], True),  # m_k0 = -inf: the left side is -inf
]


def test_enumerator_minor_boundaries_match_is_compatible():
    for row_i, row_k, expected in MINOR_CASES:
        mx = Matrix([row_i, row_k])
        assert is_compatible(mx, 0, (0, 0), 1, (1, 1)) is expected, (row_i, row_k)
        seqs, _ = enumerate_win_sequences_counted(mx.ints, [[(0, 0)], [(1, 1)]])
        assert seqs == ([((0, 0), (1, 1))] if expected else []), (row_i, row_k)


def test_enumerator_sorted_keys_match_is_compatible():
    """Against one column of row i, the pairs of row k on either side of its
    key, tied with it and on -inf columns."""
    mx = Matrix([[0, 1, 2, 3, NI, 5], [0, 0, 2, 4, 1, NI]])
    seconds = [(c, c) for c in range(6)] + [(3, 1), (2, 5)]
    for first in [(0, 0), (1, 1), (2, 2), (4, 4), (0, 3)]:
        seqs, _ = enumerate_win_sequences_counted(mx.ints, [[first], seconds])
        expected = [(first, s) for s in seconds if is_compatible(mx, 0, first, 1, s)]
        assert seqs == expected, first


def _transformed_rows(rng):
    m, n = rng.randint(2, 6), rng.randint(1, 7)
    density = rng.choice((0.0, 0.3, 0.6))
    rows = [
        [None if rng.random() < density else rng.randint(-3, 3) for _ in range(n)]
        for _ in range(m)
    ]
    pairs = [
        sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, n))})
        for _ in range(m)
    ]
    c, r, j = rng.randint(-5, 5), rng.randrange(m), rng.randrange(n)
    t = rng.randint(2, 7)
    shifted_row = [
        [v if v is None or i != r else v + c for v in row] for i, row in enumerate(rows)
    ]
    shifted_col = [
        [v if v is None or col != j else v + c for col, v in enumerate(row)] for row in rows
    ]
    scaled = [[v if v is None else v * t for v in row] for row in rows]
    return rows, pairs, (shifted_row, shifted_col, scaled)


def test_enumeration_invariant_under_shifts_and_scale():
    """Adding a constant to one row or one column, or scaling every entry by
    a positive int, leaves the sequences and the node count unchanged."""
    rng = random.Random(31)
    for _ in range(300):
        rows, pairs, variants = _transformed_rows(rng)
        base = enumerate_win_sequences_counted(rows, pairs)
        for variant in variants:
            assert enumerate_win_sequences_counted(variant, pairs) == base, (rows, pairs)


class _Untouchable:
    def __getitem__(self, index):
        raise AssertionError("the enumerator read a row it never needed")


def test_enumerator_builds_no_table_it_does_not_need():
    """Rows 0 and 1 have no compatible pair, so nothing of row 2 is read."""
    rows = [[0, 1], [5, 0], _Untouchable()]
    pairs = [[(0, 1)], [(0, 1)], [(0, 1)]]
    assert enumerate_win_sequences_counted(rows, pairs) == ([], 1)


def test_necessity_for_real_valued_solutions():
    """Any solution with every row value real chooses pairwise-compatible pairs."""
    rng = random.Random(23)
    values = [NEG_INF, Fraction(0), Fraction(1), Fraction(2)]
    from tropsolve import matvec_maxplus

    for _ in range(300):
        m_rows, n = rng.randint(2, 3), rng.randint(2, 3)
        a = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m_rows)], cols=n)
        b = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m_rows)], cols=n)
        mx = maximum_matrix(a, b)
        classes = row_classes(a, b)
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
                    if ref_odot(mx[i, p], x[p]) == left[i] and ref_odot(mx[i, q], x[q]) == left[i]:
                        cand = (p, q)
                        break
                assert cand is not None
                chosen.append(cand)
            for i in range(m_rows):
                for k in range(i + 1, m_rows):
                    assert is_compatible(mx, i, chosen[i], k, chosen[k])
