"""Instance normalization: dominance filtering and iterated reduction.

A raw instance (A, B) is first filtered so that each entry survives only
where it is at least the opposing entry (the "dominant" pair), then rows and
columns that impose nothing, or that force variables to -inf, are peeled off
until a fixed point.  The reduction copies nothing: it names the rows it
keeps and the columns left live, and every downstream stage reads the
instance's own rows in original column indices.

row_masks reads int rows, None standing for -inf: the entries of A and B
in one common unit (Matrix.ints, which cells.solve rescales to the lcm of
the two units when they differ).  The reduction only compares entries,
so any common unit gives the same result.

The reduction runs on column bitmasks (bit j for column j).  row_masks
builds them once per instance: for each row, the columns where a_ij ==
b_ij (-inf included), and the columns where the bold A entry, and the bold
B entry, is finite.  None of these depends on which other columns are live,
so one RowMasks serves every silencing scenario of a solve: a scenario only
declares more columns dead, and reduce_instance intersects the masks with
its own set of live columns.  maximum_matrix is the entrywise maximum of
two Matrix objects, taken on their ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .core import DimensionMismatch, Matrix

IntRows = Sequence[Sequence[int | None]]


class Verdict(Enum):
    REDUCED = "reduced"
    TRIVIAL_ONLY = "trivial_only"
    ALL_ROWS_GONE = "all_rows_gone"


@dataclass(frozen=True)
class ReducedInstance:
    """What is left of an instance after the reduction, in original indices.

    rows lists the kept rows of the instance, in order, and live is the
    bitmask of the columns still live.  forced_neg_inf, free_cols and the
    columns of live partition the original column set, and forced_neg_inf
    includes the dead columns the reduction started from.  For the verdicts
    other than REDUCED, rows is empty and live is 0.
    """

    rows: tuple[int, ...]
    live: int
    forced_neg_inf: frozenset[int]
    free_cols: frozenset[int]
    verdict: Verdict


@dataclass(frozen=True)
class RowMasks:
    """The part of a reduction that no silencing scenario changes.

    maximum is the entrywise maximum of the instance's int rows over n
    columns.  For row i, bit j of same[i] is set where a_ij == b_ij (both
    -inf included), of a_win[i] where the bold A entry (a_ij, kept where it
    is at least b_ij) is finite and of b_win[i] where the bold B entry is
    finite.
    """

    n: int
    maximum: tuple[tuple[int | None, ...], ...]
    same: tuple[int, ...]
    a_win: tuple[int, ...]
    b_win: tuple[int, ...]


def maximum_matrix(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise maximum of the two sides."""
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(f"shape mismatch: {a.rows}x{a.cols} versus {b.rows}x{b.cols}")
    unit = math.lcm(a.unit, b.unit)
    rows = [
        [x if y is None or (x is not None and x >= y) else y for x, y in zip(ar, br)]
        for ar, br in zip(a.in_unit(unit), b.in_unit(unit))
    ]
    return Matrix._of_ints(rows, unit, a.cols)


def row_masks(a: IntRows, b: IntRows, n: int) -> RowMasks:
    """The entrywise maximum and the column masks of int rows a and b over n columns.

    The bold pair keeps each entry only where it weakly dominates the
    opposing entry: where the entries tie both survive, elsewhere the loser
    becomes None.  It has the same solution set as the original pair, and
    a_win and b_win hold its finite entries.  n is explicit because an
    instance without rows has no row to tell it.
    """
    if any(len(row) != n for row in a):
        raise DimensionMismatch(f"rows do not have {n} entries")
    if len(a) != len(b) or any(len(row) != n for row in b):
        raise DimensionMismatch("the two sides differ in shape")
    maximum, same, a_win, b_win = [], [], [], []
    for ar, br in zip(a, b):
        zs = []
        s = aw = bw = 0
        bit = 1
        for x, y in zip(ar, br):
            if x == y:
                s |= bit
                if x is not None:
                    aw |= bit
                    bw |= bit
                zs.append(x)
            elif y is None or (x is not None and x > y):
                aw |= bit
                zs.append(x)
            else:
                bw |= bit
                zs.append(y)
            bit <<= 1
        maximum.append(tuple(zs))
        same.append(s)
        a_win.append(aw)
        b_win.append(bw)
    return RowMasks(n, tuple(maximum), tuple(same), tuple(a_win), tuple(b_win))


def columns(mask: int) -> list[int]:
    """The columns of a bitmask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def reduce_instance(masks: RowMasks, dead: Iterable[int] = ()) -> ReducedInstance:
    """Iterate the reduction moves to a fixed point.

    masks holds the instance (see row_masks).  The dead columns, ints in
    range(n), start at -inf: no move looks at them, so the result is that
    of the instance with these columns deleted, in original coordinates.

    The live columns are one int mask, live; the moves, in order,
    restarting from the first after any change, are:
      * drop every row whose two sides are identical on the live columns,
        live & ~same[i] == 0 (it imposes nothing);
      * take the first row with one side entirely -inf on the live columns
        while the other has a finite entry: exactly one of live & a_win[i]
        and live & b_win[i] is 0.  The other one's columns win the row
        maximum, which must equal -inf, so they are forced to -inf and
        leave live, and the row is dropped;
      * drop every live column that is -inf on both sides of every live
        row, live & ~OR(a_win[i] | b_win[i]) (it is unconstrained, free).

    Each move strictly shrinks rows+columns, so the loop terminates.
    """
    n = masks.n
    dead_mask = 0
    for j in dead:
        if isinstance(j, bool) or not isinstance(j, int):
            raise TypeError(f"dead columns must be ints, not {type(j).__name__}")
        if not 0 <= j < n:
            raise ValueError(f"dead column {j} is not in range({n})")
        dead_mask |= 1 << j
    full = (1 << n) - 1
    live = full ^ dead_mask
    same, a_win, b_win = masks.same, masks.a_win, masks.b_win
    rows = list(range(len(same)))
    free = 0

    while True:
        kept = [i for i in rows if live & ~same[i]]
        if len(kept) < len(rows):
            rows = kept
            continue
        for k, i in enumerate(rows):
            a_live = live & a_win[i]
            b_live = live & b_win[i]
            if (a_live == 0) != (b_live == 0):
                live ^= a_live | b_live
                del rows[k]
                break
        else:
            used = 0
            for i in rows:
                used |= a_win[i] | b_win[i]
            idle = live & ~used
            if not idle:
                break
            free |= idle
            live ^= idle

    if rows:
        verdict = Verdict.REDUCED
    else:
        # no live column is left (live is 0): every one is forced or free
        verdict = Verdict.ALL_ROWS_GONE if free else Verdict.TRIVIAL_ONLY
    return ReducedInstance(
        rows=tuple(rows),
        live=live,
        forced_neg_inf=frozenset(columns(full ^ live ^ free)),
        free_cols=frozenset(columns(free)),
        verdict=verdict,
    )
