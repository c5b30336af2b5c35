"""Instance normalization: dominance filtering and iterated reduction.

A raw instance (A, B) is first filtered so that each entry survives only
where it is at least the opposing entry (the "dominant" pair), then rows and
columns that impose nothing, or that force variables to -inf, are peeled off
until a fixed point.  Bookkeeping maps let every downstream result be
reported in original coordinates.

row_masks reads int rows, None standing for -inf: the entries of A and B
times one common scale (core.common_denominator and core.scaled_entries;
cells.solve scales once per solve).  The reduction only compares entries,
so any common unit gives the same result.

The reduction runs on column bitmasks (bit j for column j).  row_masks
builds them once per instance: for each row, the columns where a_ij ==
b_ij (-inf included), and the columns where the bold A entry, and the bold
B entry, is finite.  None of these depends on which other columns are live,
so one RowMasks serves every silencing scenario of a solve: a scenario only
declares more columns dead, and reduce_instance intersects the masks with
its own set of live columns.  maximum_matrix is the entrywise maximum of
two Matrix objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .core import DimensionMismatch, Matrix, oplus

IntRows = Sequence[Sequence[int | None]]


class Verdict(Enum):
    REDUCED = "reduced"
    TRIVIAL_ONLY = "trivial_only"
    ALL_ROWS_GONE = "all_rows_gone"


@dataclass(frozen=True)
class ReducedInstance:
    """Reduced instance plus the bookkeeping to undo the reduction.

    a_dom, b_dom and their entrywise maximum scaled_max are int rows in the
    unit of the rows row_masks was given (None for -inf), indexed in
    reduced coordinates; row_origin and col_origin map them back.
    forced_neg_inf, free_cols and the image of col_origin partition the
    original column set, and forced_neg_inf includes the dead columns the
    reduction started from.  For the verdicts other than REDUCED the three
    row tuples and col_origin are empty.
    """

    a_dom: tuple[tuple[int | None, ...], ...]
    b_dom: tuple[tuple[int | None, ...], ...]
    scaled_max: tuple[tuple[int | None, ...], ...]
    row_origin: tuple[int, ...]
    col_origin: tuple[int, ...]
    forced_neg_inf: frozenset[int]
    free_cols: frozenset[int]
    verdict: Verdict


@dataclass(frozen=True)
class RowMasks:
    """The part of a reduction that no silencing scenario changes.

    a_bold and b_bold are the bold pair of the instance's int rows over n
    columns and maximum is their entrywise maximum.  For row i, bit j of
    same[i] is set where a_ij == b_ij (both -inf included), of a_win[i]
    where the bold A entry is finite and of b_win[i] where the bold B entry
    is finite.
    """

    n: int
    a_bold: tuple[tuple[int | None, ...], ...]
    b_bold: tuple[tuple[int | None, ...], ...]
    maximum: tuple[tuple[int | None, ...], ...]
    same: tuple[int, ...]
    a_win: tuple[int, ...]
    b_win: tuple[int, ...]


def _check_same_shape(a: Matrix, b: Matrix) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(
            f"shape mismatch: {a.rows}x{a.cols} versus {b.rows}x{b.cols}"
        )


def maximum_matrix(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise maximum of the two sides."""
    _check_same_shape(a, b)
    return Matrix(
        [[oplus(a[i, j], b[i, j]) for j in range(a.cols)] for i in range(a.rows)],
        cols=a.cols,
    )


def row_masks(a: IntRows, b: IntRows, n: int) -> RowMasks:
    """The bold pair and the column masks of int rows a and b over n columns.

    The bold pair keeps each entry only where it weakly dominates the
    opposing entry: where the entries tie both survive, elsewhere the loser
    becomes None.  It has the same solution set as the original pair.  n is
    explicit because an instance without rows has no row to tell it.
    """
    if any(len(row) != n for row in a):
        raise DimensionMismatch(f"rows do not have {n} entries")
    if len(a) != len(b) or any(len(row) != n for row in b):
        raise DimensionMismatch("the two sides differ in shape")
    a_bold, b_bold, maximum, same, a_win, b_win = [], [], [], [], [], []
    for ar, br in zip(a, b):
        xs, ys, zs = [], [], []
        s = aw = bw = 0
        bit = 1
        for x, y in zip(ar, br):
            if x == y:
                s |= bit
                if x is not None:
                    aw |= bit
                    bw |= bit
                xs.append(x)
                ys.append(y)
                zs.append(x)
            elif y is None or (x is not None and x > y):
                aw |= bit
                xs.append(x)
                ys.append(None)
                zs.append(x)
            else:
                bw |= bit
                xs.append(None)
                ys.append(y)
                zs.append(y)
            bit <<= 1
        a_bold.append(tuple(xs))
        b_bold.append(tuple(ys))
        maximum.append(tuple(zs))
        same.append(s)
        a_win.append(aw)
        b_win.append(bw)
    return RowMasks(
        n, tuple(a_bold), tuple(b_bold), tuple(maximum), tuple(same), tuple(a_win), tuple(b_win)
    )


def _columns(mask: int, n: int) -> list[int]:
    return [j for j in range(n) if mask >> j & 1]


def _take(rows: IntRows, keep_rows: list[int], keep_cols: list[int] | None) -> tuple:
    """The given rows, restricted to the given columns (None keeps them all)."""
    if keep_cols is None:
        return tuple([rows[i] for i in keep_rows])
    return tuple([tuple([rows[i][j] for j in keep_cols]) for i in keep_rows])


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

    Each move strictly shrinks rows+columns, so the loop terminates.  The
    dominated rows a_dom, b_dom and scaled_max are read off masks only for
    the REDUCED verdict.
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

    if not rows:
        # no live column is left: every one is forced or free
        return ReducedInstance(
            a_dom=(),
            b_dom=(),
            scaled_max=(),
            row_origin=(),
            col_origin=(),
            forced_neg_inf=frozenset(_columns(full ^ free, n)),
            free_cols=frozenset(_columns(free, n)),
            verdict=Verdict.ALL_ROWS_GONE if free else Verdict.TRIVIAL_ONLY,
        )
    cols = _columns(live, n)
    keep = None if live == full else cols
    return ReducedInstance(
        a_dom=_take(masks.a_bold, rows, keep),
        b_dom=_take(masks.b_bold, rows, keep),
        scaled_max=_take(masks.maximum, rows, keep),
        row_origin=tuple(rows),
        col_origin=tuple(cols),
        forced_neg_inf=frozenset(_columns(full ^ live ^ free, n)),
        free_cols=frozenset(_columns(free, n)),
        verdict=Verdict.REDUCED,
    )
