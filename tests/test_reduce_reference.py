"""The reduction on column masks against the list-based loop it replaced.

ref_bold_pair and ref_reduce_instance below are the earlier bold_pair and
reduce_instance: they rebuild the dominated pair on every call and run each
move as a scan over the live columns, on sets of columns.  They are kept
here as the definition the mask-based reduce_instance must match: every
field of ReducedInstance equal, and the same outcome (reduced, unconstrained
or trivial), on seeded draws with every shape from 0x1 to 7x8, -inf
densities from 0 to 0.9, planted identical (or nearly identical) rows and
random dead sets.
ref_max_rows is the earlier copy of the dominated maximum matrix onto the
kept rows and live columns; RowMasks.maximum must hold it there.
"""

from __future__ import annotations

import random
from collections import Counter

from conftest import OUTCOMES, col_mask, outcome
from tropsolve.core import DimensionMismatch
from tropsolve.preprocess import ReducedInstance, columns, reduce_instance, row_masks


def ref_bold_pair(a, b):
    if len(a) != len(b) or any(len(ar) != len(br) for ar, br in zip(a, b)):
        raise DimensionMismatch("the two sides differ in shape")
    a_bold = []
    b_bold = []
    for ar, br in zip(a, b):
        pairs = list(zip(ar, br))
        a_bold.append([x if y is None or (x is not None and x >= y) else None for x, y in pairs])
        b_bold.append([y if x is None or (y is not None and y >= x) else None for x, y in pairs])
    return a_bold, b_bold


def ref_reduce_instance(a, b, n, dead=()):
    """(ReducedInstance, outcome) of the list reduction with the dead columns dead."""
    if any(len(row) != n for row in a):
        raise DimensionMismatch(f"rows do not have {n} entries")
    a_bold, b_bold = ref_bold_pair(a, b)
    live_rows = list(range(len(a)))
    forced = set(dead)
    live_cols = [j for j in range(n) if j not in forced]
    free: set[int] = set()

    changed = True
    while changed:
        changed = False

        for i in list(live_rows):
            if all(a[i][j] == b[i][j] for j in live_cols):
                live_rows.remove(i)
                changed = True
        if changed:
            continue

        for i in list(live_rows):
            ar, br = a_bold[i], b_bold[i]
            a_dead = all(ar[j] is None for j in live_cols)
            b_dead = all(br[j] is None for j in live_cols)
            if a_dead == b_dead:
                continue
            side = br if a_dead else ar
            winners = [j for j in live_cols if side[j] is not None]
            forced.update(winners)
            live_cols = [j for j in live_cols if j not in winners]
            live_rows.remove(i)
            changed = True
            break
        if changed:
            continue

        for j in list(live_cols):
            if all(a_bold[i][j] is None and b_bold[i][j] is None for i in live_rows):
                free.add(j)
                live_cols.remove(j)
                changed = True

    if live_rows:
        kind = "reduced"
    elif len(forced) == n:
        kind = "trivial"
    else:
        kind = "unconstrained"

    red = ReducedInstance(
        rows=tuple(live_rows),
        live=col_mask(live_cols),
        forced=col_mask(forced),
        free=col_mask(free),
    )
    return red, kind


def ref_max_rows(a, b, rows, cols):
    """The maximum of the dominated pair, copied onto the given rows and columns."""
    a_bold, b_bold = ref_bold_pair(a, b)
    a_dom = [[a_bold[i][j] for j in cols] for i in rows]
    b_dom = [[b_bold[i][j] for j in cols] for i in rows]
    return [[x if x is not None else y for x, y in zip(ar, br)] for ar, br in zip(a_dom, b_dom)]


def _cols(red, n):
    return [j for j in range(n) if red.live >> j & 1]


def _draw(rng):
    """(a, b, n, dead): int rows with ties, planted equal rows and a dead set."""
    m, n = rng.randint(0, 7), rng.randint(1, 8)
    density = rng.choice((0.0, 0.1, 0.3, 0.5, 0.7, 0.9))

    def entry():
        return None if rng.random() < density else rng.randint(-2, 2)

    a = [[entry() for _ in range(n)] for _ in range(m)]
    b = [[entry() for _ in range(n)] for _ in range(m)]
    for i in range(m):
        plant = rng.random()
        if plant < 0.35:
            b[i] = list(a[i])
            if plant < 0.2:  # equal but in one column, which may go dead
                b[i][rng.randrange(n)] = entry()
    share = rng.choice((0.0, 0.0, 0.15, 0.4, 0.8))
    dead = [j for j in range(n) if rng.random() < share]
    return a, b, n, dead


def _check_partition(red, n):
    forced, free, cols = set(columns(red.forced)), set(columns(red.free)), _cols(red, n)
    assert red.live >> n == 0 and red.forced >> n == 0 and red.free >> n == 0
    assert len(forced) + len(free) + len(cols) == n
    assert forced | free | set(cols) == set(range(n))
    assert list(red.rows) == sorted(red.rows)
    if outcome(red) != "reduced":
        assert red.rows == () and red.live == 0


def test_reduce_instance_matches_the_list_reduction():
    rng = random.Random(20240517)
    outcomes = Counter()
    for _ in range(20000):
        a, b, n, dead = _draw(rng)
        masks = row_masks(a, b, n)
        red = reduce_instance(masks, col_mask(dead))
        ref, ref_kind = ref_reduce_instance(a, b, n, dead=dead)
        assert red == ref, (a, b, n, dead)
        assert outcome(red) == ref_kind, (a, b, n, dead)
        _check_partition(red, n)
        cols = _cols(red, n)
        kept_max = [[masks.maximum[i][j] for j in cols] for i in red.rows]
        assert kept_max == ref_max_rows(a, b, red.rows, cols)
        assert set(dead) <= set(columns(red.forced))
        outcomes[outcome(red)] += 1
    assert set(outcomes) == set(OUTCOMES)
    assert min(outcomes.values()) >= 500, outcomes


def test_every_scenario_of_one_masks_matches_a_fresh_reduction():
    """One RowMasks serves every dead set: scenarios share nothing else."""
    rng = random.Random(77)
    for _ in range(60):
        a, b, n, _ = _draw(rng)
        masks = row_masks(a, b, n)
        for bits in range(1 << n):
            dead = [j for j in range(n) if bits >> j & 1]
            assert reduce_instance(masks, bits) == ref_reduce_instance(a, b, n, dead)[0]
