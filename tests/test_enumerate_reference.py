"""The lazily built compatibility tables against the eager table they replaced.

ref_compatibility_masks and ref_enumerate below are the earlier enumerator:
before the search starts it tabulates the minor test for every pair and
every later row, one column-pair comparison at a time, and the search ANDs
those masks into the domains.  They are kept here as the definition the
enumerator must match: equal (sequences, nodes) on seeded draws with shapes
from 0x1 to 8x9, -inf densities 0, 0.3 and 0.6, the real winning pairs of
the draw, arbitrary pair lists (their own columns -inf included), tied keys
and empty pair lists at any depth.
"""

from __future__ import annotations

import random
from collections import Counter

from tropsolve.preprocess import row_masks
from tropsolve.winseq import classify_row, enumerate_win_sequences_counted, winning_pairs


def ref_compatibility_masks(rows, pairs_per_row):
    """masks[i][a][k], for rows i < k: bit b is set when pair b of row k is
    compatible with pair a of row i."""
    holders = []
    for pairs in pairs_per_row:
        held = {}
        for b, pair in enumerate(pairs):
            for col in set(pair):
                held[col] = held.get(col, 0) | 1 << b
        holders.append(held)

    masks = []
    for i, pairs in enumerate(pairs_per_row):
        row_i = rows[i]
        per_pair = [[0] * len(pairs_per_row) for _ in pairs]
        for k in range(i + 1, len(pairs_per_row)):
            row_k = rows[k]
            bad = {}
            for iota in holders[i]:
                mask = 0
                for kappa, held in holders[k].items():
                    l1, l2 = row_i[kappa], row_k[iota]
                    if l1 is None or l2 is None:
                        continue
                    r1, r2 = row_i[iota], row_k[kappa]
                    if r1 is None or r2 is None or l1 + l2 > r1 + r2:
                        mask |= held
                bad[iota] = mask
            full = (1 << len(pairs_per_row[k])) - 1
            for a, (p, q) in enumerate(pairs):
                per_pair[a][k] = full & ~(bad[p] | bad[q])
        masks.append(per_pair)
    return masks


def ref_enumerate(rows, pairs_per_row):
    m = len(pairs_per_row)
    if m == 0:
        return [()], 0
    masks = ref_compatibility_masks(rows, pairs_per_row)
    out = []
    nodes = 0
    chosen = [0] * m
    domains = [[(1 << len(pairs)) - 1 for pairs in pairs_per_row]]
    untried = [domains[0][0]]
    while untried:
        d = len(untried) - 1
        bits = untried[d]
        if not bits:
            untried.pop()
            domains.pop()
            continue
        low = bits & -bits
        untried[d] = bits ^ low
        a = low.bit_length() - 1
        chosen[d] = a
        nodes += 1
        if d == m - 1:
            out.append(tuple(pairs_per_row[k][chosen[k]] for k in range(m)))
            continue
        narrowed = domains[d].copy()
        row_masks_ = masks[d][a]
        for k in range(d + 1, m):
            narrowed[k] &= row_masks_[k]
            if not narrowed[k]:
                break
        else:
            domains.append(narrowed)
            untried.append(narrowed[d + 1])
    return out, nodes


def _rows(rng, m, n, density, span):
    return [
        [None if rng.random() < density else rng.randint(-span, span) for _ in range(n)]
        for _ in range(m)
    ]


def _real_pairs(rng, m, n, density):
    """The maximum matrix and winning pairs of a drawn pair (a, b)."""
    a, b = _rows(rng, m, n, density, 3), _rows(rng, m, n, density, 3)
    masks = row_masks(a, b, n)
    pairs = [winning_pairs(classify_row(masks, i, (1 << n) - 1)) for i in range(m)]
    return masks.maximum, pairs


def _arbitrary_pairs(rng, m, n, density):
    """Any pairs of columns, -inf ones and repeated columns included."""
    rows = _rows(rng, m, n, density, rng.choice((1, 4)))
    pairs = [
        sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))})
        for _ in range(m)
    ]
    return rows, pairs


def _tied_keys(rng, m, n, density):
    """Rows that differ by a constant on most columns, so many keys tie."""
    base = [None if rng.random() < density else rng.randint(-2, 2) for _ in range(n)]
    rows = [
        [v if v is None or rng.random() < 0.8 else v + rng.choice((-1, 1)) for v in base]
        for _ in range(m)
    ]
    rows = [[None if v is None else v + shift for v in row] for shift, row in enumerate(rows)]
    pairs = [
        sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 4))})
        for _ in range(m)
    ]
    return rows, pairs


def test_enumerator_matches_the_eager_table():
    rng = random.Random(19_80)
    kinds = Counter()
    for _ in range(2000):
        m, n = rng.randint(0, 8), rng.randint(1, 9)
        density = rng.choice((0.0, 0.3, 0.6))
        kind = rng.choice(("real", "arbitrary", "tied"))
        if kind == "real":
            rows, pairs = _real_pairs(rng, m, n, density)
        elif kind == "arbitrary":
            rows, pairs = _arbitrary_pairs(rng, m, n, density)
        else:
            rows, pairs = _tied_keys(rng, m, n, density)
        got = enumerate_win_sequences_counted(rows, pairs)
        assert got == ref_enumerate(rows, pairs), (rows, pairs)
        kinds[kind] += 1
        kinds["with a sequence of two rows or more"] += bool(got[0]) and m > 1
    assert len(kinds) == 4 and min(kinds.values()) >= 400, kinds


def test_empty_pair_list_at_any_depth():
    rng = random.Random(5)
    for depth in range(4):
        for _ in range(40):
            rows, pairs = _arbitrary_pairs(rng, 4, 5, 0.3)
            pairs[depth] = []
            got = enumerate_win_sequences_counted(rows, pairs)
            assert got == ref_enumerate(rows, pairs)
            assert got[0] == []
            if depth == 0:
                assert got == ([], 0)
