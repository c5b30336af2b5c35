"""The cell stage in original columns against the reduced-coordinate pipeline.

solve runs each scenario on the instance's own rows: the reduction names
the kept rows and the live columns, classify_row reads its column sets off
the row masks, and every later step indexes the original columns.  The
earlier pipeline copied the kept rows onto the live columns ("reduced
coordinates"), classified them entry by entry and mapped each cell back
through the list of live columns (col_origin).  ref_classify_row and
ref_solve below are that pipeline, kept here as the definition the
original-column solve must match: the same cells, win-sequence count,
globally forced set and stats counts on seeded draws.  The reference keeps
its column sets as frozensets; it hands the row classes to the package
(winning_pairs, _solve_sequence) as RowClassification masks over the
reduced coordinates.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from conftest import col_mask, dimension_bound, omega_assignment, outcome, pair_scale, scaled_pair
from tropsolve import NEG_INF, Matrix
from tropsolve.cells import _build_cell, _solve_sequence, _unconstrained_key, solve
from tropsolve.preprocess import columns, reduce_instance, row_masks
from tropsolve.winseq import (
    RowClassification,
    classify_row,
    enumerate_win_sequences_counted,
    winning_pairs,
)


def ref_columns(mask, n):
    """The columns of a bitmask over n columns, in increasing order."""
    return [j for j in range(n) if mask >> j & 1]


def ref_bold_pair(a, b):
    """The bold pair of int rows: each entry kept where it is at least the opposing one."""
    a_bold = [[x if y is None or (x is not None and x >= y) else None for x, y in zip(ar, br)]
              for ar, br in zip(a, b)]
    b_bold = [[y if x is None or (y is not None and y >= x) else None for x, y in zip(ar, br)]
              for ar, br in zip(a, b)]
    return a_bold, b_bold


def ref_classify_row(a_dom, b_dom, i):
    """The column sets (a_wins, b_wins, ties, dead) of row i of a dominated
    pair, entry by entry, as frozensets."""
    a_wins, b_wins, ties, dead = set(), set(), set(), set()
    for j, (av, bv) in enumerate(zip(a_dom[i], b_dom[i])):
        if av == bv:
            (ties if av is not None else dead).add(j)
        elif bv is None or (av is not None and av > bv):
            a_wins.add(j)
        else:
            b_wins.add(j)
    return frozenset(a_wins), frozenset(b_wins), frozenset(ties), frozenset(dead)


def as_masks(sets):
    """The RowClassification of ref_classify_row's sets, in the same coordinates."""
    a_wins, b_wins, ties, _ = sets
    return RowClassification(col_mask(a_wins), col_mask(b_wins), col_mask(ties))


def ref_cell_key(sequence, omega, pa, residue, red, orig):
    """The cell key of a sequence solved in reduced coordinates, mapped back."""
    rep, off = pa.representative, pa.offset
    assigned = [(orig[v], orig[rep[v]], off[v]) for v in range(len(orig)) if v not in omega]
    assigned.extend((f, f, 0) for f in columns(red.free))
    if not assigned:
        return None
    assigned.sort()
    neg = set(columns(red.forced))
    neg.update(orig[v] for v in omega)
    return (
        tuple((orig[p], orig[q]) for p, q in sequence),
        tuple(sorted(neg)),
        tuple(assigned),
        tuple((orig[p], orig[q], c) for p, q, c in residue),
    )


def ref_solve(a, b, drops):
    """solve with every scenario copied into reduced coordinates.

    Returns (cells, win_sequence_count, globally_forced, (enum_nodes,
    scenarios, collapsed)).  drops counts, by kind, the scenarios that
    enumerate at least one sequence on fewer than all n columns.
    """
    n = a.cols
    scale = pair_scale(a, b)
    a_int, b_int = scaled_pair(a, b)
    masks = row_masks(a_int, b_int, n)
    a_bold, b_bold = ref_bold_pair(a_int, b_int)
    keys, seen, stack = set(), set(), [frozenset()]
    root_p = root_nodes = scenarios = collapsed = 0
    while stack:
        forced0 = stack.pop()
        if forced0 in seen:
            continue
        seen.add(forced0)
        scenarios += 1
        red = reduce_instance(masks, col_mask(forced0))
        if outcome(red) == "trivial":
            continue
        if outcome(red) == "unconstrained":
            keys.add(_unconstrained_key(red.free, n))
            continue
        orig = ref_columns(red.live, n)
        a_dom = [[a_bold[i][j] for j in orig] for i in red.rows]
        b_dom = [[b_bold[i][j] for j in orig] for i in red.rows]
        scaled_max = [
            [x if x is not None else y for x, y in zip(ar, br)] for ar, br in zip(a_dom, b_dom)
        ]
        class_sets = [ref_classify_row(a_dom, b_dom, h) for h in range(len(red.rows))]
        classes = [as_masks(sets) for sets in class_sets]
        sequences, nodes = enumerate_win_sequences_counted(
            scaled_max, [winning_pairs(c) for c in classes]
        )
        if not forced0:
            root_p, root_nodes = len(sequences), nodes
        if sequences and len(orig) < n:
            drops["any"] += 1
            drops["silenced"] += bool(forced0)
            drops["forced"] += bool(set(columns(red.forced)) - forced0)
            drops["free"] += bool(red.free)
        systems: dict = {}
        for sequence in sequences:
            omega, pa, residue = omega_assignment(_solve_sequence(
                sequence, scaled_max, classes, len(orig), systems
            ))
            key = ref_cell_key(sequence, omega, pa, residue, red, orig)
            if key is None:
                collapsed += 1
            else:
                # the bound over all n columns, which _build_cell reads off the key
                keys.add(key + (dimension_bound(key[0], n),))
        for _, _, _, dead in class_sets:
            child = forced0 | {c for j, c in enumerate(orig) if j not in dead}
            if len(child) < n and child not in seen:
                stack.append(child)
    cells = tuple(_build_cell(key, n, scale) for key in sorted(keys))
    if cells:
        forced = frozenset.intersection(*(c.neg_inf for c in cells))
    else:
        forced = frozenset(range(n))
    return cells, root_p, forced, (root_nodes, scenarios, collapsed)


# sparse rows leave columns free, force columns and survive silencing, so
# that many scenarios enumerate sequences on fewer than all columns
VALUES = (Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), 0, 1, 2, -1)


def _sparse_rows(rng, m, n, density):
    return [[NEG_INF if rng.random() < density else rng.choice(VALUES) for _ in range(n)]
            for _ in range(m)]


def test_solve_equals_the_reduced_coordinate_pipeline():
    rng = random.Random(5150)
    drops = Counter()
    for _ in range(1500):
        m, n = rng.randint(2, 4), rng.randint(3, 7)
        density = rng.choice((0.3, 0.5, 0.7))
        a_rows, b_rows = _sparse_rows(rng, m, n, density), _sparse_rows(rng, m, n, density)
        a, b = Matrix(a_rows, cols=n), Matrix(b_rows, cols=n)
        result = solve(a, b, collect_stats=True)
        cells, p, forced, counts = ref_solve(a, b, drops)
        stats = result.stats
        assert result.cells == cells, (a_rows, b_rows)
        assert result.win_sequence_count == p
        assert result.globally_forced == forced
        assert result.trivial_only == (not cells)
        assert (stats.enum_nodes, stats.scenarios, stats.collapsed) == counts
    # the column maps that differ from the identity are exercised, each kind
    assert drops["any"] >= 200, drops
    assert min(drops[kind] for kind in ("silenced", "forced", "free")) >= 50, drops


def _row(rng, n, kind):
    """A row pair (a, b) of int rows over n columns, with None for -inf."""
    def entry():
        return None if rng.random() < 0.3 else rng.randint(-2, 2)

    if kind == "all -inf":
        return [None] * n, [None] * n
    if kind == "ties only":
        row = [rng.randint(-2, 2) for _ in range(n)]
        return row, list(row)
    a = [entry() for _ in range(n)]
    b = [entry() for _ in range(n)]
    if kind == "planted ties":
        for j in range(n):
            if rng.random() < 0.4:
                b[j] = a[j]
    return a, b


def test_classify_row_equals_the_entry_loop():
    rng = random.Random(424242)
    kinds = Counter()
    for _ in range(3000):
        n = rng.randint(1, 8)
        kind = rng.choice(("all -inf", "ties only", "random", "planted ties", "finite not live"))
        a, b = _row(rng, n, kind)
        full = (1 << n) - 1
        if kind == "finite not live":
            # every finite entry of the row sits in a column that is not live
            finite = sum(1 << j for j in range(n) if a[j] is not None or b[j] is not None)
            live = full & ~finite & rng.randrange(1 << n)
        else:
            live = rng.randrange(1 << n)
        masks = row_masks([a], [b], n)
        cls = classify_row(masks, 0, live)

        orig = ref_columns(live, n)
        a_bold, b_bold = ref_bold_pair([a], [b])
        ref_a, ref_b, ref_ties, ref_dead = ref_classify_row(
            [[a_bold[0][j] for j in orig]], [[b_bold[0][j] for j in orig]], 0
        )
        a_wins, b_wins, ties = (
            frozenset(columns(mask)) for mask in (cls.a_wins, cls.b_wins, cls.ties)
        )
        dead = frozenset(range(n)) - a_wins - b_wins - ties
        assert a_wins == {orig[j] for j in ref_a}, (a, b, live)
        assert b_wins == {orig[j] for j in ref_b}, (a, b, live)
        assert ties == {orig[j] for j in ref_ties}, (a, b, live)
        assert dead == {orig[j] for j in ref_dead} | (set(range(n)) - set(orig))

        parts = (a_wins, b_wins, ties, dead)
        assert sum(map(len, parts)) == n
        assert frozenset().union(*parts) == set(range(n))
        if kind in ("all -inf", "finite not live"):
            assert dead == set(range(n))
        if kind == "ties only":
            assert not a_wins and not b_wins and ties == set(orig)
        kinds[kind] += 1
    assert min(kinds.values()) >= 400, kinds

