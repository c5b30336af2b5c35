"""Brute-force ground truth: enumerate a finite grid and test the equation.

The grid enumeration is independent of the solver pipeline; it shares only
scalar and matrix arithmetic with it.  Cross validation also takes three
per-cell tools from cells: cell_membership, sample_cell and
verify_solution.  Candidates are drawn from the grid values plus -inf in
every coordinate, so solution faces reaching -inf are exercised.
Enumeration runs on ints in one unit, which is exact.

Points hold public numbers (see core): an integral coordinate as an int,
any other as a Fraction, and -inf as NEG_INF.  grid_solutions gives the
grid values as GridSpec keeps them, read by core.as_scalar, and
sample_cell writes its draws with core.unscaled.  So on an integer grid
and integer data cross_validate stays on ints from the grid to the
verdicts: core._to_ints reads such a point in one pass, without a
ratio, for cell_membership and verify_solution alike, the verdict cache
is keyed on int tuples, and no Fraction is built.  After that read,
cell_membership only compares the point's columns, along a plan each
cell builds on first use (its -inf columns, one anchor column per
parameter, its rows over the anchors).  sample_cell draws whole numbers
with the getrandbits calls randint makes, for a box of any size.

grid_solutions splits the n columns into leading ones and a trailing block
of the last r, where r is the largest r <= n with k**r <= 4096 candidates
(k grid points, -inf included).  The block is decided bit-parallel, on
int masks over its k**r candidates; it is bounded so that no mask grows
past 4096 bits (512 bytes), where one mask over the whole space would grow
with it (279,936 bits for 7 columns of 6 points).  Only a grid of more
than 4096 points leaves r = 0: the block is then the empty tuple, one
candidate, and the search decides every column.

The leading columns are searched depth first, in lexicographic order,
keeping each row's running left and right maxima.  The search cuts a
subtree when some row can no longer balance: its lower side, raised by the
best the remaining columns can add (their largest entry of that side plus
the largest grid value), still stays below its higher side.  The cut drops
only candidates that fail, so the result is the full product's, in its
order.  These bounds (reach) are built only when there are leading
columns: with 6 grid points and n <= 4 the block holds every column, and
the search has nothing to cut.  The search keeps an explicit stack: no
recursion, and no closure that refers to itself and leaves a reference
cycle behind on every call.

Block candidate (c_0, ..., c_{r-1}) is bit sum c_j * k**(r-1-j), so
ascending bits are the lexicographic order.  Each (column, grid point) has
one cylinder mask, the candidates that take that point in that column,
built once per grid shape (k, r).  Two maxima are equal iff, for every
value t either side can take, both are >= t or both are < t.  So each row
sweeps the distinct values of its block terms in descending order, ORs
each term's cylinder into a left or a right mask (the candidates whose
side reaches the value) and accumulates bad |= left ^ right; the row
holds on ~bad.
The sweep depends only on the block, so it is built once per call.  It
keeps its state at each height a prefix maximum can take: -inf's floor
and the terms of the leading columns.  A leaf merges only its prefix
maxima lv and rv, at h = max(lv, rv): the values above h are read off the
state kept at h, and at h the side whose prefix reaches h covers every
candidate.  Below h nothing more can differ, because from h down one side
covers every candidate and the other's mask only grows.  The rows' bad
masks OR together, and the set bits of the rest decode in ascending
order, each through two tables of digit tuples built once per (points, r):
high = product(points, repeat=r - r // 2) and low = product(points,
repeat=r // 2).  product counts in base k, last digit fastest, as the bits
do, so bit q's tail is high[q // k**(r // 2)] + low[q % k**(r // 2)]: two
lookups in place of r digit steps.  A block of width 0 or 1 leaves low
the one empty tuple, and width 0 high too.

cross_validate tests each grid solution first against the cell that
covered the previous covered one, then against the other cells in their
order.  Solutions come in lexicographic order, so the next one usually lies
in the same cell; coverage is a yes/no answer over all cells, so the
misses are the same, in the same order, as for a scan of every cell.  The
trivial point, which counts as covered, is found by comparison with one
all -inf tuple.  Each distinct sampled point is verified once per call:
the first sample of every cell is the all -inf point, and draws repeat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Sequence

from .cells import SolutionSet, _positive_int, cell_membership, sample_cell, verify_solution
from .core import (
    NEG_INF,
    DimensionMismatch,
    Matrix,
    Scalar,
    TropicalError,
    _to_ints,
    as_scalar,
)


class GridTooLarge(TropicalError):
    """The candidate count exceeds the configured cap."""


@dataclass(frozen=True)
class GridSpec:
    """Finite, strictly ascending list of rational grid values.

    The values are kept as core.as_scalar reads them: an int when integral,
    a Fraction otherwise.
    """

    values: tuple[Scalar, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("grid needs at least one value")
        values = []
        for v in self.values:
            if v is NEG_INF:
                raise ValueError("grid values must be finite: -inf is a grid point already")
            if isinstance(v, str):
                raise TypeError("grid values are numbers, not str; GridSpec.of parses tokens")
            values.append(as_scalar(v))  # TypeError for a float, a bool or any other type
        if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
            raise ValueError("grid values must be strictly ascending")
        object.__setattr__(self, "values", tuple(values))

    @classmethod
    def of(cls, values: Sequence) -> "GridSpec":
        """The grid of the given values, in any order, repeats allowed.

        Each value is read as as_scalar reads it: a float or bool raises
        TypeError, a bad token ValueError, and so does -inf, which the grid
        adds by itself.  Equal values collapse into one, however they are
        spelled.
        """
        points = sorted(map(as_scalar, values))  # -inf sorts first: __post_init__ rejects it
        return cls(tuple(v for i, v in enumerate(points) if i == 0 or v != points[i - 1]))

    def points(self) -> tuple[Scalar, ...]:
        """-inf, then the values."""
        return (NEG_INF,) + self.values


# The trailing block holds at most this many candidates, so each of its
# masks is an int of at most this many bits.
_BLOCK = 4096


@lru_cache(maxsize=32)
def _cylinders(k: int, r: int) -> tuple[tuple[int, ...], ...]:
    """cyl[j][c]: the block candidates whose column j takes grid point c.

    Candidate (c_0, ..., c_{r-1}) is bit sum c_j * k**(r-1-j).  Digit j is
    c on runs of s = k**(r-1-j) bits starting at c * s, one run every k * s
    bits; the geometric series (2**(k**r) - 1) // (2**(k*s) - 1) has one bit
    at the start of every period.  The masks depend on the grid's shape
    alone, so they are built once per (k, r).
    """
    out = []
    for j in range(r):
        s = k ** (r - 1 - j)
        period = ((1 << k**r) - 1) // ((1 << k * s) - 1)
        out.append(tuple([period * (((1 << s) - 1) << c * s) for c in range(k)]))
    return tuple(out)


@lru_cache(maxsize=32)
def _digit_tables(points: tuple[Scalar, ...], r: int) -> tuple[tuple, tuple]:
    """(high, low): the digit tables that decode a block candidate.

    high = product(points, repeat=r - r // 2) and low = product(points,
    repeat=r // 2), built once per (points, r); the module docstring says
    how a candidate's bit reads off them.
    """
    return tuple(product(points, repeat=r - r // 2)), tuple(product(points, repeat=r // 2))


def _sweep(
    row_a: Sequence[int | None],
    row_b: Sequence[int | None],
    cylinders: Sequence[Sequence[int]],
    points: Sequence[int | None],
    heights: set[int],
) -> dict[int, tuple[int, int, int]]:
    """One row's block sweep, kept at the heights a prefix maximum can take.

    Sweeps the distinct values of the row's block terms, and the heights,
    in descending order.  At each height h it keeps (bad, left, right): the
    candidates whose two block maxima differ above h, and those whose left
    (right) block maximum reaches h.  So a row holds at most len(heights)
    states of three masks, however many values its block terms take.
    """
    hits: dict[int, list[int]] = {h: [0, 0] for h in heights}
    for side, row in enumerate((row_a, row_b)):
        for e, cyl in zip(row, cylinders):
            if e is not None:
                for c, x in enumerate(points):
                    if x is not None:
                        hits.setdefault(e + x, [0, 0])[side] |= cyl[c]
    left = right = bad = 0
    states = {}
    for t in sorted(hits, reverse=True):
        on_left, on_right = hits[t]
        left |= on_left
        right |= on_right
        if t in heights:
            states[t] = (bad, left, right)
        bad |= left ^ right
    return states


def grid_solutions(
    a: Matrix, b: Matrix, grid: GridSpec, cap: int = 10**6
) -> list[tuple[Scalar, ...]]:
    """All grid vectors solving the system, in lexicographic order.

    The coordinates are the grid's values and NEG_INF.  Rejects (rather
    than truncates) when the candidate count exceeds the cap: a silently
    partial oracle would invalidate completeness claims.
    """
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch("matrix shapes differ")
    n = a.cols
    points = grid.points()  # what the output holds: -inf, then the values as read
    k = len(points)
    size = k**n
    if size > cap:
        raise GridTooLarge(f"{size} candidates exceed the cap of {cap}")

    values, scale = _to_ints(grid.values, math.lcm(a.unit, b.unit))
    am, bm = a.in_unit(scale), b.in_unit(scale)
    scaled_points = [None] + values  # -inf first
    top = values[-1]
    # One int below every finite term stands for -inf, so that the running
    # maxima and the reach bounds compare as plain ints.
    finite = [v for row in am + bm for v in row if v is not None]
    floor = min(finite, default=0) + values[0] - 1

    def terms(rows: Sequence[Sequence[int | None]], j: int) -> list[tuple[int, ...]]:
        """Per grid point, the column-j term of every row."""
        return [
            tuple(floor if x is None or r[j] is None else r[j] + x for r in rows)
            for x in scaled_points
        ]

    def reach(rows: Sequence[Sequence[int | None]]) -> list[tuple[int, ...]]:
        """Per depth d, the largest term columns d.. can add to every row."""
        bounds = [(floor,) * a.rows]
        for j in reversed(range(n)):
            bounds.append(
                tuple(
                    best if r[j] is None else max(best, r[j] + top)
                    for r, best in zip(rows, bounds[-1])
                )
            )
        return bounds[::-1]

    # the trailing block: the last r columns, k**r <= _BLOCK candidates
    r = 0
    while r < n and k ** (r + 1) <= _BLOCK:
        r += 1
    lead = n - r
    full = (1 << k**r) - 1
    a_terms = [terms(am, j) for j in range(lead)]
    b_terms = [terms(bm, j) for j in range(lead)]
    # the cut bounds are read only while the search descends the leading columns
    a_reach, b_reach = (reach(am), reach(bm)) if lead else ((), ())
    # a row's prefix maxima are floor or terms of its leading columns
    heights = [{floor} for _ in range(a.rows)]
    for col in a_terms + b_terms:
        for row_terms in col:
            for row_heights, t in zip(heights, row_terms):
                row_heights.add(t)
    cylinders = _cylinders(k, r)
    sweeps = [
        _sweep(ra[lead:], rb[lead:], cylinders, scaled_points, hs)
        for ra, rb, hs in zip(am, bm, heights)
    ]
    high, low = _digit_tables(points, r)
    low_size = len(low)

    out: list[tuple[Scalar, ...]] = []
    start = (floor,) * a.rows
    # depth-first over the leading columns; children are pushed in reverse
    # so that they pop in ascending order and the output stays lexicographic
    stack: list[tuple[tuple[Scalar, ...], Sequence[int], Sequence[int]]] = [
        ((), start, start)
    ]
    while stack:
        prefix, left, right = stack.pop()
        d = len(prefix)
        if d == lead:
            # the block: merge each row's prefix maxima into its sweep
            bad = 0
            for states, lv, rv in zip(sweeps, left, right):
                h = lv if lv > rv else rv
                above, reach_l, reach_r = states[h]
                if lv == h:
                    reach_l = full
                if rv == h:
                    reach_r = full
                bad |= above | (reach_l ^ reach_r)
            bits = bin(full ^ bad)[:1:-1]  # candidate q at position q
            q = bits.find("1")
            while q >= 0:
                out.append(prefix + high[q // low_size] + low[q % low_size])
                q = bits.find("1", q + 1)
            continue
        a_col, b_col = a_terms[d], b_terms[d]
        a_next, b_next = a_reach[d + 1], b_reach[d + 1]
        for c in reversed(range(k)):
            lft: list[int] = []
            rgt: list[int] = []
            for lv, rv, at, bt, la, rb in zip(left, right, a_col[c], b_col[c], a_next, b_next):
                if at > lv:
                    lv = at
                if bt > rv:
                    rv = bt
                # cut: the lower side cannot reach the higher one any more
                if (lv < rv and la < rv) or (rv < lv and rb < lv):
                    break
                lft.append(lv)
                rgt.append(rv)
            else:
                stack.append((prefix + (points[c],), lft, rgt))
    return out


@dataclass(frozen=True)
class CrossValidationReport:
    """Two-sided comparison of the oracle and a computed solution set."""

    missed: tuple[tuple[Scalar, ...], ...]
    invalid: tuple[tuple[int, tuple[Scalar, ...]], ...]
    oracle_count: int
    sample_count: int

    @property
    def ok(self) -> bool:
        return not self.missed and not self.invalid


def cross_validate(
    a: Matrix,
    b: Matrix,
    grid: GridSpec,
    solution_set: SolutionSet,
    samples_per_cell: int = 20,
    seed: int = 0,
    box: int = 10,
    cap: int = 10**6,
) -> CrossValidationReport:
    """Check the oracle against the cells and the cells against the equation.

    missed: oracle solutions contained in no cell (the trivial point counts
    as covered).  invalid: sampled cell points failing direct verification.
    Both must be empty for a correct solver.  Before any enumeration, raises
    DimensionMismatch when the solution set's width is not a's column count,
    and checks samples_per_cell and box as sample_cell checks count and box.
    """
    if solution_set.num_vars != a.cols:
        raise DimensionMismatch(
            f"solution set of {solution_set.num_vars} variables against {a.cols} columns"
        )
    _positive_int("samples_per_cell", samples_per_cell)
    _positive_int("box", box)
    sols = grid_solutions(a, b, grid, cap=cap)
    cells = solution_set.cells
    missed = []
    trivial = (NEG_INF,) * a.cols
    hit = None  # the cell that covered the last covered point
    for x in sols:
        if x == trivial:
            continue
        if hit is not None and cell_membership(hit, x):
            continue
        for cell in cells:
            if cell is not hit and cell_membership(cell, x):
                hit = cell
                break
        else:
            missed.append(x)
    invalid = []
    total = 0
    verdicts: dict[tuple[Scalar, ...], bool] = {}  # each distinct point is verified once
    for idx, cell in enumerate(solution_set.cells):
        for point in sample_cell(cell, samples_per_cell, seed=seed + idx, box=box):
            total += 1
            holds = verdicts.get(point)
            if holds is None:
                holds = verdicts[point] = verify_solution(a, b, point)
            if not holds:
                invalid.append((idx, point))
    return CrossValidationReport(
        missed=tuple(missed),
        invalid=tuple(invalid),
        oracle_count=len(sols),
        sample_count=total,
    )
