"""Instance normalization: dominance filtering and iterated reduction.

A raw instance (A, B) is first filtered so that each entry survives only
where it is at least the opposing entry (the "dominant" pair), then rows and
columns that impose nothing, or that force variables to -inf, are peeled off
until a fixed point.  Bookkeeping maps let every downstream result be
reported in original coordinates.

bold_pair and reduce_instance read int rows, None standing for -inf: the
entries of A and B times one common scale (core.scaled_entries; cells.solve
scales once per solve).  The reduction only compares entries, so any common
unit gives the same result.  maximum_matrix is the entrywise maximum of two
Matrix objects.
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
    unit of the rows reduce_instance was given (None for -inf), indexed in
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


def _check_same_shape(a: Matrix, b: Matrix) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(
            f"shape mismatch: {a.rows}x{a.cols} versus {b.rows}x{b.cols}"
        )


def bold_pair(a: IntRows, b: IntRows) -> tuple[list[list], list[list]]:
    """Keep each entry only where it weakly dominates the opposing entry.

    a and b are int rows of one shape, None for -inf.  Where the entries
    tie, both survive; elsewhere the loser becomes None.  The filtered pair
    has the same solution set as the original.
    """
    if len(a) != len(b) or any(len(ar) != len(br) for ar, br in zip(a, b)):
        raise DimensionMismatch("the two sides differ in shape")
    a_bold = []
    b_bold = []
    for ar, br in zip(a, b):
        pairs = list(zip(ar, br))
        a_bold.append([x if y is None or (x is not None and x >= y) else None for x, y in pairs])
        b_bold.append([y if x is None or (y is not None and y >= x) else None for x, y in pairs])
    return a_bold, b_bold


def maximum_matrix(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise maximum of the two sides."""
    _check_same_shape(a, b)
    return Matrix(
        [[oplus(a[i, j], b[i, j]) for j in range(a.cols)] for i in range(a.rows)],
        cols=a.cols,
    )


def reduce_instance(
    a: IntRows, b: IntRows, n: int, dead: Iterable[int] = ()
) -> ReducedInstance:
    """Iterate the reduction moves to a fixed point.

    a and b are int rows over n columns in one common unit, None for -inf;
    n is explicit because an instance without rows has no row to tell it.
    The dead columns start at -inf: no move looks at them, so the result is
    that of the instance with these columns deleted, in original
    coordinates.

    Moves, in order, restarting after any change:
      * drop a row whose two sides are identical (it imposes nothing);
      * if one side of a row is entirely -inf while the other side has a
        finite entry, every column carrying such an entry is forced to
        -inf, those columns are deleted everywhere and the row is dropped;
      * drop a column whose two sides are entirely -inf (unconstrained).

    Each move strictly shrinks rows+columns, so the loop terminates.
    """
    if any(len(row) != n for row in a):
        raise DimensionMismatch(f"rows do not have {n} entries")
    a_bold, b_bold = bold_pair(a, b)
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
            # the side that still has finite entries wins the row maximum,
            # which must equal -inf: its columns are forced to -inf
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
        verdict = Verdict.REDUCED
    elif len(forced) == n:
        verdict = Verdict.TRIVIAL_ONLY
    else:
        verdict = Verdict.ALL_ROWS_GONE

    a_dom = tuple(tuple(a_bold[i][j] for j in live_cols) for i in live_rows)
    b_dom = tuple(tuple(b_bold[i][j] for j in live_cols) for i in live_rows)
    # each entry of a dominated pair is the maximum or None
    mx = tuple(
        tuple(x if x is not None else y for x, y in zip(ar, br))
        for ar, br in zip(a_dom, b_dom)
    )
    return ReducedInstance(
        a_dom=a_dom,
        b_dom=b_dom,
        scaled_max=mx,
        row_origin=tuple(live_rows),
        col_origin=tuple(live_cols),
        forced_neg_inf=frozenset(forced),
        free_cols=frozenset(free),
        verdict=verdict,
    )
