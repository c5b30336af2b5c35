"""Brute-force ground truth: enumerate a finite grid and test the equation.

Deliberately independent of the solver pipeline; the only shared code is
scalar/matrix arithmetic.  Candidates are drawn from the grid values plus
-inf in every coordinate, so solution faces reaching -inf are exercised.
Enumeration runs on integers after clearing denominators, which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .cells import SolutionSet, cell_membership, sample_cell, verify_solution
from .core import (
    NEG_INF,
    DimensionMismatch,
    Matrix,
    NegInfinity,
    Scalar,
    TropicalError,
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
        return cls(tuple(sorted(Fraction(v) for v in set(values))))

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

    out: list[tuple[Scalar, ...]] = []
    for combo in product(range(len(points)), repeat=n):
        xs = [scaled_points[c] for c in combo]
        good = True
        for i in range(a.rows):
            left = None
            right = None
            arow = am[i]
            brow = bm[i]
            for j in range(n):
                xj = xs[j]
                if xj is None:
                    continue
                av = arow[j]
                if av is not None:
                    t = av + xj
                    if left is None or t > left:
                        left = t
                bv = brow[j]
                if bv is not None:
                    t = bv + xj
                    if right is None or t > right:
                        right = t
            if left != right:
                good = False
                break
        if good:
            out.append(tuple(points[c] for c in combo))
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
    Both must be empty for a correct solver.
    """
    sols = grid_solutions(a, b, grid, cap=cap)
    missed = []
    for x in sols:
        if all(isinstance(v, NegInfinity) for v in x):
            continue
        if not any(cell_membership(cell, x) for cell in solution_set.cells):
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
