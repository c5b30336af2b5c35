"""Row classification, winning pairs, compatibility, and enumeration.

For each row of the dominated pair (int rows of the reduced instance,
None for -inf), the columns split into those where the left side strictly
wins, those where the right side strictly wins, ties, and columns dead on
both sides.  A winning pair picks one column from each strict side (or a tie
column against itself); two pairs from different rows are compatible when
every 2x2 tropical minor of the maximum matrix they span attains its value
on the main diagonal.  Win sequences (one pair per row, pairwise compatible)
are enumerated by forward checking over the maximum matrix scaled to exact
ints (the reduced instance's scaled_max): the minor test is tabulated once
per enumeration as one bitmask per pair and later row, and each choice
intersects the domains of all later rows, backtracking as soon as one is
empty.  is_compatible is the readable reference for the same test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Matrix

Pair = tuple[int, int]
WinSequence = tuple[Pair, ...]


@dataclass(frozen=True)
class RowClassification:
    """Disjoint column sets of one row: their union is the full column range."""

    a_wins: frozenset[int]
    b_wins: frozenset[int]
    ties: frozenset[int]
    dead: frozenset[int]


def classify_row(
    a_dom: Sequence[Sequence[int | None]], b_dom: Sequence[Sequence[int | None]], i: int
) -> RowClassification:
    """The column sets of row i of a dominated pair of int rows (None for -inf)."""
    a_wins, b_wins, ties, dead = set(), set(), set(), set()
    for j, (av, bv) in enumerate(zip(a_dom[i], b_dom[i])):
        if av == bv:
            (ties if av is not None else dead).add(j)
        elif bv is None or (av is not None and av > bv):
            a_wins.add(j)
        else:
            b_wins.add(j)
    return RowClassification(
        frozenset(a_wins), frozenset(b_wins), frozenset(ties), frozenset(dead)
    )


def winning_pairs(cls: RowClassification) -> list[Pair]:
    """All strict-side pairs plus the tie diagonal, lexicographically sorted.

    Tie columns are paired only with themselves: a solution tying two
    columns arises from each diagonal pair separately, so mixed tie pairs
    would only duplicate sub-cells.
    """
    pairs = [(p, q) for p in cls.a_wins for q in cls.b_wins]
    pairs.extend((e, e) for e in cls.ties)
    return sorted(pairs)


def max_pairs_per_row(n: int) -> int:
    """Upper bound r on the number of winning pairs of any row."""
    return max(((n + 1) // 2) * (n // 2), n)


def is_compatible(max_matrix: Matrix, i: int, first: Pair, k: int, second: Pair) -> bool:
    """Whether the pair of row k is compatible with the pair of row i < k.

    Checks m_{i kappa} + m_{k iota} <= m_{i iota} + m_{k kappa} for the up
    to four column combinations, with -inf absorbing; a minor that is -inf
    on both sides passes.  The test runs on the matrix's ints.
    """
    row_i, row_k = max_matrix.ints[i], max_matrix.ints[k]
    for iota in set(first):
        for kappa in set(second):
            lhs, rhs = (row_i[kappa], row_k[iota]), (row_i[iota], row_k[kappa])
            if None not in lhs and (None in rhs or sum(lhs) > sum(rhs)):
                return False
    return True


def _compatibility_masks(
    rows: Sequence[Sequence[int | None]], pairs_per_row: list[list[Pair]]
) -> list[list[list[int]]]:
    """masks[i][a][k], for rows i < k: bit b is set when pair b of row k is
    compatible with pair a of row i (the test of is_compatible).

    A column-level table of the 2x2 minor test over the int rows is folded
    over the pairs holding each column.
    """
    # per row: column -> bitmask of the pairs that use it
    holders: list[dict[int, int]] = []
    for pairs in pairs_per_row:
        held: dict[int, int] = {}
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
            # bad[iota]: pairs of row k failing the minor test against column iota
            bad: dict[int, int] = {}
            for iota in holders[i]:
                mask = 0
                for kappa, held in holders[k].items():
                    l1, l2 = row_i[kappa], row_k[iota]
                    if l1 is None or l2 is None:
                        continue  # the left side is -inf: the minor passes
                    r1, r2 = row_i[iota], row_k[kappa]
                    if r1 is None or r2 is None or l1 + l2 > r1 + r2:
                        mask |= held
                bad[iota] = mask
            full = (1 << len(pairs_per_row[k])) - 1
            for a, (p, q) in enumerate(pairs):
                per_pair[a][k] = full & ~(bad[p] | bad[q])
        masks.append(per_pair)
    return masks


def enumerate_win_sequences_counted(
    rows: Sequence[Sequence[int | None]], pairs_per_row: list[list[Pair]]
) -> tuple[list[WinSequence], int]:
    """Enumerate win sequences and report the number of search nodes visited.

    rows is the maximum matrix scaled to exact ints, None for -inf (as in
    ReducedInstance.scaled_max); any positive scale gives the same result.
    Forward checking over the bitmasks of _compatibility_masks: choosing a
    pair narrows the domain of every later row, and the search backtracks as
    soon as one is empty.  Pairs are tried in list order, so the sequences
    come out in the order of a plain depth-first search.  A node is one pair
    taken from a filtered domain.  The stack is explicit, so the number of
    rows is not limited by the recursion limit.
    """
    m = len(pairs_per_row)
    if m == 0:
        return [()], 0
    masks = _compatibility_masks(rows, pairs_per_row)
    out: list[WinSequence] = []
    nodes = 0
    chosen = [0] * m
    # domains[d][k]: pair indices of row k still open after the choices at
    # rows < d; untried[d]: the pairs of row d not taken yet
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
        row_masks = masks[d][a]
        for k in range(d + 1, m):
            narrowed[k] &= row_masks[k]
            if not narrowed[k]:
                break
        else:
            domains.append(narrowed)
            untried.append(narrowed[d + 1])
    return out, nodes
