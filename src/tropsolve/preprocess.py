"""Instance normalization: dominance filtering and iterated reduction.

A raw instance (A, B) is first filtered so that each entry survives only
where it is at least the opposing entry (the "dominant" pair), then rows and
columns that impose nothing, or that force variables to -inf, are peeled off
until a fixed point.  Bookkeeping maps let every downstream result be
reported in original coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import (
    NEG_INF,
    DimensionMismatch,
    Matrix,
    NegInfinity,
    common_denominator,
    oplus,
    scaled_entries,
)


class Verdict(Enum):
    REDUCED = "reduced"
    TRIVIAL_ONLY = "trivial_only"
    ALL_ROWS_GONE = "all_rows_gone"


@dataclass(frozen=True)
class ReducedInstance:
    """Reduced instance plus the bookkeeping to undo the reduction.

    forced_neg_inf, free_cols and the image of col_origin partition the
    original column set.  Row/column indices inside the matrices are
    reduced coordinates; the origin tuples map them back.  scaled_max holds
    the rows of max_matrix times scale as exact ints (None for -inf): the
    cell stage works in units of 1/scale.  cells.solve passes one scale for
    all its scenarios (the lcm of the denominators of A and B); alone,
    reduce_instance takes the lcm of max_matrix's denominators.
    """

    a_dom: Matrix
    b_dom: Matrix
    max_matrix: Matrix
    row_origin: tuple[int, ...]
    col_origin: tuple[int, ...]
    forced_neg_inf: frozenset[int]
    free_cols: frozenset[int]
    verdict: Verdict
    scale: int
    scaled_max: tuple[tuple[int | None, ...], ...]


def _check_same_shape(a: Matrix, b: Matrix) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(
            f"shape mismatch: {a.rows}x{a.cols} versus {b.rows}x{b.cols}"
        )


def bold_pair(a: Matrix, b: Matrix) -> tuple[Matrix, Matrix]:
    """Keep each entry only where it weakly dominates the opposing entry.

    Where the entries tie, both survive; elsewhere the loser becomes -inf.
    The filtered pair has the same solution set as the original.
    """
    _check_same_shape(a, b)
    a_rows = []
    b_rows = []
    for i in range(a.rows):
        ar = []
        br = []
        for j in range(a.cols):
            av, bv = a[i, j], b[i, j]
            ar.append(av if av >= bv else NEG_INF)
            br.append(bv if bv >= av else NEG_INF)
        a_rows.append(ar)
        b_rows.append(br)
    return Matrix(a_rows, cols=a.cols), Matrix(b_rows, cols=b.cols)


def maximum_matrix(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise maximum of the two sides."""
    _check_same_shape(a, b)
    return Matrix(
        [[oplus(a[i, j], b[i, j]) for j in range(a.cols)] for i in range(a.rows)],
        cols=a.cols,
    )


def reduce_instance(a: Matrix, b: Matrix, scale: int | None = None) -> ReducedInstance:
    """Iterate the reduction moves to a fixed point.

    scale, if given, must be a multiple of every denominator in a and b.

    Moves, in order, restarting after any change:
      * drop a row whose two sides are identical (it imposes nothing);
      * if one side of a row is entirely -inf while the other side has a
        rational entry, every column carrying such an entry is forced to
        -inf, those columns are deleted everywhere and the row is dropped;
      * drop a column whose two sides are entirely -inf (unconstrained).

    Each move strictly shrinks rows+columns, so the loop terminates.
    """
    a_bold, b_bold = bold_pair(a, b)
    live_rows = list(range(a.rows))
    live_cols = list(range(a.cols))
    forced: set[int] = set()
    free: set[int] = set()

    changed = True
    while changed:
        changed = False

        for i in list(live_rows):
            if all(a[i, j] == b[i, j] for j in live_cols):
                live_rows.remove(i)
                changed = True
        if changed:
            continue

        for i in list(live_rows):
            doms = [(a_bold[i, j], b_bold[i, j]) for j in live_cols]
            a_dead = all(isinstance(da, NegInfinity) for da, _ in doms)
            b_dead = all(isinstance(db, NegInfinity) for _, db in doms)
            if a_dead == b_dead:
                continue
            # the side that still has rational entries wins the row maximum,
            # which must equal -inf: its columns are forced to -inf
            side = 1 if a_dead else 0
            winners = [
                j
                for j, dom in zip(live_cols, doms)
                if not isinstance(dom[side], NegInfinity)
            ]
            forced.update(winners)
            live_cols = [j for j in live_cols if j not in winners]
            live_rows.remove(i)
            changed = True
            break
        if changed:
            continue

        for j in list(live_cols):
            dead = all(
                isinstance(a_bold[i, j], NegInfinity)
                and isinstance(b_bold[i, j], NegInfinity)
                for i in live_rows
            )
            if dead:
                free.add(j)
                live_cols.remove(j)
                changed = True

    if live_rows:
        verdict = Verdict.REDUCED
    elif forced == set(range(a.cols)):
        verdict = Verdict.TRIVIAL_ONLY
    else:
        verdict = Verdict.ALL_ROWS_GONE

    if live_rows:
        a_dom = Matrix(
            [[a_bold[i, j] for j in live_cols] for i in live_rows],
            cols=len(live_cols),
        )
        b_dom = Matrix(
            [[b_bold[i, j] for j in live_cols] for i in live_rows],
            cols=len(live_cols),
        )
        mx = maximum_matrix(a_dom, b_dom)
    else:
        # placeholder 0 x 1 shapes; never consulted for these verdicts
        a_dom = Matrix([], cols=1)
        b_dom = Matrix([], cols=1)
        mx = Matrix([], cols=1)
        live_cols = []

    if scale is None:
        scale = common_denominator(v for row in mx.to_rows() for v in row)
    return ReducedInstance(
        a_dom=a_dom,
        b_dom=b_dom,
        max_matrix=mx,
        row_origin=tuple(live_rows),
        col_origin=tuple(live_cols),
        forced_neg_inf=frozenset(forced),
        free_cols=frozenset(free),
        verdict=verdict,
        scale=scale,
        scaled_max=tuple(map(tuple, scaled_entries(mx, scale))),
    )
