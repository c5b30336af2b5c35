"""Row classification, winning pairs, compatibility, and enumeration.

For each kept row of a reduced instance, the columns split into those where
the left side strictly wins, those where the right side strictly wins, ties,
and the dead columns: -inf on both sides of the bold pair, or not live in
the scenario.  classify_row reads the split off the row's column bitmasks
(preprocess.RowMasks) and keeps the first three classes as bitmasks over the
original column indices; the dead columns are the rest.  A winning pair picks
one column from each strict side (or a tie column against itself); two
pairs from different rows are compatible when every 2x2 tropical minor of
the maximum matrix they span attains its value on the main diagonal.  Win
sequences (one pair per row, pairwise compatible) are enumerated by forward
checking over the kept rows of the maximum matrix scaled to exact ints
(RowMasks.maximum).  For rows i < k the minor test
m_i kappa + m_k iota <= m_i iota + m_k kappa is a comparison of one key per
column, key(kappa) <= key(iota) with key(c) = m_ic - m_kc, so one sort of
row k's columns by key gives, for each column of row i, the bitmask of row
k's pairs it rules out; a column with an -inf entry needs no key (it rules
out all or none).  That table is built the first time the search narrows row
k from row i, each choice removes the pairs its two columns rule out from
the domains of all later rows, and the search backtracks as soon as one is
empty.  tests/test_winseq.py keeps is_compatible, the readable reference
for the same test.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .preprocess import RowMasks, columns

Pair = tuple[int, int]
WinSequence = tuple[Pair, ...]


@dataclass(frozen=True)
class RowClassification:
    """Disjoint column bitmasks of one row, in original column indices.

    Bit j of a_wins, b_wins or ties is set where column j is a strict win
    for the left side, a strict win for the right side or a tie; a column
    in none of the three is dead, and takes part in no pair and no row of
    the row's system.
    """

    a_wins: int
    b_wins: int
    ties: int


def classify_row(masks: RowMasks, i: int, live: int) -> RowClassification:
    """The column classes of row i of the instance masks holds, on the live columns.

    live is a column bitmask: a column outside it is dead whatever the row
    holds there.  A live column is a tie where both bold entries are finite
    (they are then equal), a strict win for the side whose bold entry alone
    is finite, and dead where both are -inf.
    """
    a_win = masks.a_win[i] & live
    b_win = masks.b_win[i] & live
    ties = a_win & b_win
    return RowClassification(a_win ^ ties, b_win ^ ties, ties)


def winning_pairs(cls: RowClassification) -> list[Pair]:
    """All strict-side pairs plus the tie diagonal, lexicographically sorted.

    Tie columns are paired only with themselves: a solution tying two
    columns arises from each diagonal pair separately, so mixed tie pairs
    would only duplicate sub-cells.
    """
    b_wins = columns(cls.b_wins)
    pairs = [(p, q) for p in columns(cls.a_wins) for q in b_wins]
    pairs.extend((e, e) for e in columns(cls.ties))
    return sorted(pairs)


def max_pairs_per_row(n: int) -> int:
    """Upper bound r on the number of winning pairs of any row."""
    return max(((n + 1) // 2) * (n // 2), n)


def _bad_columns(
    row_i: Sequence[int | None],
    row_k: Sequence[int | None],
    cols_i: Iterable[int],
    held_k: dict[int, int],
) -> dict[int, int]:
    """bad[iota]: the pairs of row k (bits of held_k, column -> pairs using
    it) failing the minor test (is_compatible in tests/test_winseq.py)
    against column iota of row i.

    With key(c) = m_ic - m_kc the test m_i kappa + m_k iota <= m_i iota +
    m_k kappa reads key(kappa) <= key(iota), so it fails when m_i kappa and
    m_k iota are finite and m_i iota = -inf, m_k kappa = -inf or key(kappa) >
    key(iota).  The kappa columns with both entries finite are sorted by key
    once; those with m_k kappa = -inf fail against every iota with m_k iota
    finite.
    """
    keyed: list[tuple[int, int]] = []
    always = 0
    for kappa, held in held_k.items():
        top = row_i[kappa]
        if top is None:
            continue  # m_i kappa = -inf: the minor passes
        low = row_k[kappa]
        if low is None:
            always |= held
        else:
            keyed.append((top - low, held))
    keyed.sort()
    keys = [key for key, _ in keyed]
    # above[j]: the always pairs and those holding a keyed column at sorted
    # position >= j
    above = [always] * (len(keyed) + 1)
    for j in range(len(keyed) - 1, -1, -1):
        above[j] = above[j + 1] | keyed[j][1]
    bad = {}
    for iota in cols_i:
        low = row_k[iota]
        if low is None:
            bad[iota] = 0  # m_k iota = -inf: the minor passes
        else:
            top = row_i[iota]
            bad[iota] = above[0] if top is None else above[bisect_right(keys, top - low)]
    return bad


def enumerate_win_sequences_counted(
    rows: Sequence[Sequence[int | None]], pairs_per_row: list[list[Pair]]
) -> tuple[list[WinSequence], int]:
    """Enumerate win sequences and report the number of search nodes visited.

    rows[d] is the row of the maximum matrix that pairs_per_row[d] belongs
    to, as exact ints over one positive scale, None for -inf (RowMasks.maximum
    at the kept rows, in original column indices); any positive scale gives
    the same result.
    Forward checking on bitmask domains: choosing pair (p, q) at row d
    removes bad[p] | bad[q] from the domain of every later row k, where bad
    is the _bad_columns table of rows d and k (the minor test as one sort by
    key, the -inf cases apart).  A table is built the first time a choice at
    row d narrows row k, so row pairs the search never reaches cost nothing
    and the last row has no table; the search backtracks as soon as a domain
    is empty.  Pairs are tried in list order, so the sequences come out in
    the order of a plain depth-first search.  A node is one pair taken from a
    filtered domain.  The stack is explicit, so the number of rows is not
    limited by the recursion limit.
    """
    m = len(pairs_per_row)
    if m == 0:
        return [()], 0
    # per row: column -> bitmask of the pairs that use it
    holders: list[dict[int, int]] = []
    for pairs in pairs_per_row:
        held: dict[int, int] = {}
        bit = 1
        for p, q in pairs:
            held[p] = held.get(p, 0) | bit
            held[q] = held.get(q, 0) | bit
            bit <<= 1
        holders.append(held)
    # tables[d][k]: the _bad_columns table of rows d < k, None until needed
    tables: list[list[dict[int, int] | None]] = [[None] * m for _ in range(m)]
    out: list[WinSequence] = []
    nodes = 0
    chosen: list[Pair] = [(0, 0)] * m
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
        p, q = chosen[d] = pairs_per_row[d][low.bit_length() - 1]
        nodes += 1
        if d == m - 1:
            out.append(tuple(chosen))
            continue
        narrowed = domains[d].copy()
        row_tables = tables[d]
        for k in range(d + 1, m):
            bad = row_tables[k]
            if bad is None:
                bad = row_tables[k] = _bad_columns(rows[d], rows[k], holders[d], holders[k])
            narrowed[k] &= ~(bad[p] | bad[q])
            if not narrowed[k]:
                break
        else:
            domains.append(narrowed)
            untried.append(narrowed[d + 1])
    return out, nodes
