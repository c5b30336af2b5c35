"""Brute-force ground truth: enumerate a finite grid and test the equation.

The grid enumeration is independent of the solver pipeline; it shares only
scalar and matrix arithmetic with it.  Cross validation also takes three
per-cell tools from cells: cell_membership, sample_cell and
verify_solution.  Candidates are drawn from the grid values plus -inf in
every coordinate, so solution faces reaching -inf are exercised.
Enumeration runs on integers after clearing denominators, which is exact.

grid_solutions searches depth first over the columns, in lexicographic
order, keeping each row's running left and right maxima.  It cuts a subtree
when some row can no longer balance: its lower side, raised by the best the
remaining columns can add (their largest entry of that side plus the largest
grid value), still stays below its higher side.  The cut drops only
candidates that fail, so the result is the full product's, in its order.
The search keeps an explicit stack: no recursion, and no closure that
refers to itself and leaves a reference cycle behind on every call.  At the
last column each grid value's completion is tested in place (every row's
two sides must end equal) and appended, without a stack entry of its own.

cross_validate tests each grid solution first against the cell that
covered the previous covered one, then against the other cells in their
order.  Solutions come in lexicographic order, so the next one usually lies
in the same cell; coverage is a yes/no answer over all cells, so the
misses are the same, in the same order, as for a scan of every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cells import SolutionSet, cell_membership, sample_cell, verify_solution
from .core import (
    NEG_INF,
    DimensionMismatch,
    Matrix,
    Scalar,
    TropicalError,
    as_scalar,
    common_denominator,
    scaled,
    scaled_entries,
)


class GridTooLarge(TropicalError):
    """The candidate count exceeds the configured cap."""


@dataclass(frozen=True)
class GridSpec:
    """Finite, strictly ascending list of rational grid values."""

    values: tuple[Fraction, ...]
    include_neg_inf: bool = True

    def __post_init__(self):
        if not self.values:
            raise ValueError("grid needs at least one value")
        if any(self.values[i] >= self.values[i + 1] for i in range(len(self.values) - 1)):
            raise ValueError("grid values must be strictly ascending")

    @classmethod
    def of(cls, values: Sequence) -> "GridSpec":
        """The grid of the given values, in any order, repeats allowed.

        Each value goes through as_scalar once: a float or bool raises
        TypeError, a bad token ValueError, and so does -inf, which the grid
        adds by itself (include_neg_inf).  Equal values collapse into one,
        however they are spelled.
        """
        points = sorted(map(as_scalar, values))  # -inf sorts first
        if points and points[0] is NEG_INF:
            raise ValueError("grid values must be finite: -inf is a grid point already")
        return cls(tuple(v for i, v in enumerate(points) if i == 0 or v != points[i - 1]))

    def points(self) -> tuple[Scalar, ...]:
        if self.include_neg_inf:
            return (NEG_INF,) + self.values
        return self.values


def grid_solutions(
    a: Matrix, b: Matrix, grid: GridSpec, cap: int = 10**6
) -> list[tuple[Scalar, ...]]:
    """All grid vectors solving the system, in lexicographic order.

    Rejects (rather than truncates) when the candidate count exceeds the
    cap: a silently partial oracle would invalidate completeness claims.
    """
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch("matrix shapes differ")
    n = a.cols
    points = grid.points()
    size = len(points) ** n
    if size > cap:
        raise GridTooLarge(f"{size} candidates exceed the cap of {cap}")

    scale = common_denominator(
        [v for row in a.to_rows() + b.to_rows() for v in row] + list(grid.values)
    )
    am = scaled_entries(a, scale)
    bm = scaled_entries(b, scale)
    scaled_points = [scaled(p, scale) for p in points]
    top = scaled(grid.values[-1], scale)
    # One int below every finite term stands for -inf, so that the running
    # maxima and the reach bounds compare as plain ints.
    finite = [v for row in am + bm for v in row if v is not None]
    floor = min(finite, default=0) + scaled(grid.values[0], scale) - 1

    def terms(rows: list[list[int | None]], j: int) -> list[tuple[int, ...]]:
        """Per grid point, the column-j term of every row."""
        return [
            tuple(floor if x is None or r[j] is None else r[j] + x for r in rows)
            for x in scaled_points
        ]

    def reach(rows: list[list[int | None]]) -> list[tuple[int, ...]]:
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

    a_terms = [terms(am, j) for j in range(n)]
    b_terms = [terms(bm, j) for j in range(n)]
    a_reach, b_reach = reach(am), reach(bm)

    out: list[tuple[Scalar, ...]] = []
    start = (floor,) * a.rows
    # depth-first over columns; children are pushed in reverse so that they
    # pop in ascending order and the output stays lexicographic
    stack: list[tuple[tuple[Scalar, ...], Sequence[int], Sequence[int]]] = [((), start, start)]
    while stack:
        prefix, left, right = stack.pop()
        d = len(prefix)
        a_col, b_col = a_terms[d], b_terms[d]
        if d == n - 1:
            # the last column: a completion solves the system when every
            # row's two sides end equal, and solutions append in order
            for c, point in enumerate(points):
                for lv, rv, at, bt in zip(left, right, a_col[c], b_col[c]):
                    if (at if at > lv else lv) != (bt if bt > rv else rv):
                        break
                else:
                    out.append(prefix + (point,))
            continue
        a_next, b_next = a_reach[d + 1], b_reach[d + 1]
        for c in reversed(range(len(points))):
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
    Both must be empty for a correct solver.  Raises DimensionMismatch when
    the solution set's width is not a's column count, and ValueError when
    samples_per_cell is below 1, before any enumeration.
    """
    if solution_set.num_vars != a.cols:
        raise DimensionMismatch(
            f"solution set of {solution_set.num_vars} variables against {a.cols} columns"
        )
    if samples_per_cell < 1:
        raise ValueError("samples_per_cell must be at least 1")
    sols = grid_solutions(a, b, grid, cap=cap)
    cells = solution_set.cells
    missed = []
    hit = None  # the cell that covered the last covered point
    for x in sols:
        if all(v is NEG_INF for v in x):
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
    for idx, cell in enumerate(solution_set.cells):
        for point in sample_cell(cell, samples_per_cell, seed=seed + idx, box=box):
            total += 1
            if not verify_solution(a, b, point):
                invalid.append((idx, point))
    return CrossValidationReport(
        missed=tuple(missed),
        invalid=tuple(invalid),
        oracle_count=len(sols),
        sample_count=total,
    )
