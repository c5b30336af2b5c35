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
its own set of live columns.  A set of columns is an int bitmask from here
to the cell key: the dead columns a scenario starts from, the live, forced
and free columns of a ReducedInstance, the classes of
winseq.RowClassification, and in the cell stage the inconsistent, flagged,
forced and dead variables of bivariate and cells.  maximum_matrix is the entrywise maximum of two
Matrix objects, taken on their ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import DimensionMismatch, Matrix

IntRows = Sequence[Sequence[int | None]]


@dataclass(frozen=True)
class ReducedInstance:
    """What is left of an instance after the reduction, in original indices.

    rows lists the kept rows of the instance, in order.  live, forced and
    free are column bitmasks that partition the original column set: the
    columns still live, those forced to -inf (the dead columns the
    reduction started from included) and the unconstrained ones.  When rows
    is empty, live is 0: with free columns the instance's solutions are the
    unconstrained cell over them, without any only the all--inf point.
    """

    rows: tuple[int, ...]
    live: int
    forced: int
    free: int


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
    """The columns of a bitmask, in increasing order.

    The mask is walked in 64-bit chunks: the low-bit loop runs on a small
    int, and the wide mask is shifted once per chunk rather than copied
    once per set bit.
    """
    out = []
    base = -1  # bit_length of a chunk's bit i is i + 1
    while mask:
        chunk = mask & 0xFFFF_FFFF_FFFF_FFFF
        mask >>= 64
        while chunk:
            low = chunk & -chunk
            out.append(base + low.bit_length())
            chunk ^= low
        base += 64
    return out


def reduce_instance(masks: RowMasks, dead: int = 0) -> ReducedInstance:
    """Iterate the reduction moves to a fixed point.

    masks holds the instance (see row_masks).  The dead columns, the bits
    of the int mask dead (below bit n), start at -inf: no move looks at
    them, so the result is that of the instance with these columns deleted,
    in original coordinates.

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
    if isinstance(dead, bool) or not isinstance(dead, int):
        raise TypeError(f"dead must be an int column mask, not {type(dead).__name__}")
    if dead < 0 or dead >> n:
        raise ValueError(f"dead mask {dead} has a bit outside range({n})")
    full = (1 << n) - 1
    live = full ^ dead
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

    return ReducedInstance(tuple(rows), live, full ^ live ^ free, free)
