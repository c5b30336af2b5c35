"""Bridges between the kindred max-plus problems and the two-sided solver.

One-sided inequalities reduce to equalities by folding the maximum into one
side; systems with separate unknown blocks concatenate into a single block;
affine systems gain a homogenizing variable that is pinned to zero in every
cell afterwards, on the cell's ints.  Residuation (the principal solution
of A (x) x <= b for a real A) is computed directly in closed form,
x#_j = min_i (b_i - a_ij).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .cells import (
    SolutionCell,
    SolutionSet,
    _positive_int,
    cell_membership,
    sample_cell,
    solve,
)
from .bivariate import Row
from .preprocess import maximum_matrix
from .core import (
    NEG_INF,
    DimensionMismatch,
    Matrix,
    NegInfinity,
    Scalar,
    UndefinedOperation,
    as_scalar,
    as_vector,
    matvec_maxplus,
    odot,
    row_maxima,
)


def leq_to_eq(a: Matrix, b: Matrix) -> tuple[Matrix, Matrix]:
    """One-sided inequality as an equality: A(x)x <= B(x)x iff (A+B)(x)x = B(x)x."""
    return maximum_matrix(a, b), b


def solve_leq(a: Matrix, b: Matrix, collect_stats: bool = False) -> SolutionSet:
    merged, rhs = leq_to_eq(a, b)
    return solve(merged, rhs, collect_stats=collect_stats)


def hetero_to_homo(c: Matrix, d: Matrix) -> tuple[Matrix, Matrix]:
    """C(x)x = D(x)y as a single system over the stacked unknown [x; y]."""
    if c.rows != d.rows:
        raise DimensionMismatch("row counts differ")
    n, m = c.cols, d.cols
    a_rows = [[c[i, j] for j in range(n)] + [NEG_INF] * m for i in range(c.rows)]
    b_rows = [[NEG_INF] * n + [d[i, j] for j in range(m)] for i in range(c.rows)]
    return Matrix(a_rows, cols=n + m), Matrix(b_rows, cols=n + m)


def solve_hetero(c: Matrix, d: Matrix, collect_stats: bool = False) -> SolutionSet:
    return solve(*hetero_to_homo(c, d), collect_stats=collect_stats)


@dataclass(frozen=True)
class AffineInstance:
    a: Matrix
    b: Matrix
    a_vec: tuple[Scalar, ...]
    b_vec: tuple[Scalar, ...]

    def __post_init__(self):
        if self.a.rows != self.b.rows or self.a.cols != self.b.cols:
            raise DimensionMismatch("matrix shapes differ")
        if len(self.a_vec) != self.a.rows or len(self.b_vec) != self.a.rows:
            raise DimensionMismatch("vector lengths must equal the row count")


def homogenize_affine(inst: AffineInstance) -> tuple[Matrix, Matrix]:
    """Append the constant columns: ([A | a], [B | b]) over n+1 variables."""
    a_rows = [
        [inst.a[i, j] for j in range(inst.a.cols)] + [inst.a_vec[i]]
        for i in range(inst.a.rows)
    ]
    b_rows = [
        [inst.b[i, j] for j in range(inst.b.cols)] + [inst.b_vec[i]]
        for i in range(inst.b.rows)
    ]
    return Matrix(a_rows, cols=inst.a.cols + 1), Matrix(b_rows, cols=inst.b.cols + 1)


def affine_holds(inst: AffineInstance, x: Sequence) -> bool:
    """Direct evaluation of A(x)x (+) a = B(x)x (+) b, as [A | a] and [B | b] at [x; 0]."""
    xs = list(x)
    try:
        maxima, _ = row_maxima(homogenize_affine(inst), xs + [0])
    except DimensionMismatch:  # the length of x, not of [x; 0]
        n = inst.a.cols
        raise DimensionMismatch(f"vector of length {len(xs)} against {n} columns") from None
    return maxima[: inst.a.rows] == maxima[inst.a.rows :]


@dataclass(frozen=True)
class PinnedCell:
    """A cell with one variable pinned to a finite value.

    Variables sharing the pinned parameter become fixed constants; parameters
    constrained against it acquire scalar bounds (a lower bound excludes
    -inf).  Indices are those of the cell's vectors, which drop the pinned
    variable; numbers are ints in units of 1/scale, the lcm of the base
    cell's scale and the pinned value's denominator: fixed holds (v, value),
    assigned (v, param, offset), lower and upper (param, bound), rows
    (plus, minus, constant).
    """

    base: SolutionCell
    pinned_var: int
    pinned_value: Fraction
    num_vars: int
    neg_inf: frozenset[int]
    scale: int
    fixed: tuple[tuple[int, int], ...]
    assigned: tuple[tuple[int, int, int], ...]
    lower: tuple[tuple[int, int], ...]
    upper: tuple[tuple[int, int], ...]
    rows: tuple[Row, ...]

    def _embed(self, x: Sequence) -> list:
        xs = list(x)
        if len(xs) != self.num_vars:
            raise DimensionMismatch(
                f"vector of length {len(xs)} against {self.num_vars} variables"
            )
        xs.insert(self.pinned_var, self.pinned_value)
        return xs

    def contains(self, x: Sequence) -> bool:
        return cell_membership(self.base, self._embed(x))

    def contains_by_view(self, x: Sequence) -> bool:
        """Same predicate, evaluated on the specialized fields (cross-check)."""
        xs = [as_scalar(v) for v in self._embed(x)]
        del xs[self.pinned_var]  # numbered as the fields are
        unit = Fraction(1, self.scale)
        for v in self.neg_inf:
            if not isinstance(xs[v], NegInfinity):
                return False
        for v, value in self.fixed:
            if xs[v] != value * unit:
                return False
        values: dict[int, Scalar] = {}
        for v, param, offset in self.assigned:
            val = xs[v]
            t = val if isinstance(val, NegInfinity) else val - offset * unit
            if values.setdefault(param, t) != t:
                return False
        for param, bound in self.lower:
            t = values[param]
            if isinstance(t, NegInfinity) or t < bound * unit:
                return False
        for param, bound in self.upper:
            t = values[param]
            if not isinstance(t, NegInfinity) and t > bound * unit:
                return False
        for plus, minus, constant in self.rows:
            tp, tm = values[plus], values[minus]
            if isinstance(tp, NegInfinity):
                continue
            if isinstance(tm, NegInfinity):
                return False
            if tp - tm + constant * unit > 0:
                return False
        return True

    def sample(self, count: int, seed: int = 0, box: int = 10) -> list[tuple[Scalar, ...]]:
        """Members with the pinned variable already substituted out.

        Base-cell samples where the pinned variable is finite are shifted so
        it hits the pinned value exactly (cells are stable under adding one
        constant to all finite coordinates).  count and box are checked as
        sample_cell checks them: ints (not bools) of at least 1.
        """
        _positive_int("count", count)
        _positive_int("box", box)
        out: list[tuple[Scalar, ...]] = []
        attempt = 0
        while len(out) < count and attempt < 200:
            chunk = sample_cell(self.base, count + 2, seed + 7919 * attempt, box)
            for point in chunk:
                z = point[self.pinned_var]
                if isinstance(z, NegInfinity):
                    continue
                delta = self.pinned_value - z
                shifted = [
                    v if isinstance(v, NegInfinity) else v + delta for v in point
                ]
                del shifted[self.pinned_var]
                out.append(tuple(shifted))
                if len(out) == count:
                    break
            attempt += 1
        if len(out) < count:
            raise RuntimeError("could not sample the pinned cell")
        return out


def pin_variable(cell: SolutionCell, var: int, value) -> PinnedCell | None:
    """Specialize a cell by fixing one variable; None if the cell forces it to -inf.

    value goes through as_scalar (a float or bool raises TypeError) and must
    be finite; var must index one of the cell's variables.
    """
    val = as_scalar(value)
    if isinstance(val, NegInfinity):
        raise UndefinedOperation("cannot pin a variable to -inf")
    if not 0 <= var < cell.num_vars:
        raise DimensionMismatch(f"variable {var} outside a cell of {cell.num_vars} variables")
    if var in cell.neg_inf:
        return None
    scale = math.lcm(cell.scale, val.denominator)
    factor = scale // cell.scale
    _, param0, off0 = next(entry for entry in cell.assigned if entry[0] == var)
    t0 = val.numerator * (scale // val.denominator) - off0 * factor

    def at(k: int) -> int:
        return k - 1 if k > var else k

    fixed, assigned, rows = [], [], []
    for v, param, offset in cell.assigned:
        if param != param0:
            assigned.append((at(v), at(param), offset * factor))
        elif v != var:
            fixed.append((at(v), t0 + offset * factor))
    lower, upper = {}, {}
    for plus, minus, constant in cell.rows:
        c = constant * factor
        if plus == param0:
            bound = t0 + c
            lower[minus] = max(lower.get(minus, bound), bound)
        elif minus == param0:
            bound = t0 - c
            upper[plus] = min(upper.get(plus, bound), bound)
        else:
            rows.append((at(plus), at(minus), c))
    return PinnedCell(
        base=cell,
        pinned_var=var,
        pinned_value=val,
        num_vars=cell.num_vars - 1,
        neg_inf=frozenset(at(v) for v in cell.neg_inf),
        scale=scale,
        fixed=tuple(fixed),
        assigned=tuple(assigned),
        lower=tuple(sorted((at(p), b) for p, b in lower.items())),
        upper=tuple(sorted((at(p), b) for p, b in upper.items())),
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class PinnedSolutionSet:
    """Solution set of an affine problem: base cells with the homogenizer at 0.

    problem names the mode that built it, "affine" or "eqb"; emit prints it.
    """

    base: SolutionSet
    cells: tuple[PinnedCell, ...]
    num_vars: int
    problem: str = "affine"

    def contains(self, x: Sequence) -> bool:
        return any(cell.contains(x) for cell in self.cells)


def solve_affine(inst: AffineInstance, collect_stats: bool = False) -> PinnedSolutionSet:
    base = solve(*homogenize_affine(inst), collect_stats=collect_stats)
    z = inst.a.cols
    pinned = tuple(
        pc
        for cell in base.cells
        if (pc := pin_variable(cell, z, 0)) is not None
    )
    return PinnedSolutionSet(base=base, cells=pinned, num_vars=z)


def eq_b_to_affine(a: Matrix, b: Sequence) -> AffineInstance:
    """A (x) x = b as the affine system A (x) x (+) -inf = -inf (x) x (+) b."""
    neg = Matrix([[NEG_INF] * a.cols for _ in range(a.rows)], cols=a.cols)
    return AffineInstance(a, neg, tuple([NEG_INF] * a.rows), as_vector(b))


def solve_eq_b(a: Matrix, b: Sequence, collect_stats: bool = False) -> PinnedSolutionSet:
    """All solutions of A (x) x = b, valid for matrices with -inf entries."""
    result = solve_affine(eq_b_to_affine(a, b), collect_stats=collect_stats)
    return replace(result, problem="eqb")


def principal_solution(a: Matrix, b: Sequence) -> tuple[Scalar, ...]:
    """Greatest x with A (x) x <= b, for a real matrix A.

    x#_j = min_i (b_i - a_ij), which is -inf when some b_i is -inf
    (Butkovic, Max-linear Systems, 2010).
    """
    if any(isinstance(v, NegInfinity) for row in a.to_rows() for v in row):
        raise UndefinedOperation("residuation requires a real matrix")
    if a.rows == 0:
        raise DimensionMismatch("residuation needs at least one row")
    bs = as_vector(b)
    if len(bs) != a.rows:
        raise DimensionMismatch(f"vector of length {len(bs)} against {a.rows} rows")
    return tuple(min(odot(v, -a[i, j]) for i, v in enumerate(bs)) for j in range(a.cols))


def decide_eq_b(a: Matrix, b: Sequence) -> tuple[Scalar, ...] | None:
    """The greatest solution of A (x) x = b for real A, or None if none exists."""
    bs = as_vector(b)
    candidate = principal_solution(a, bs)
    if matvec_maxplus(a, candidate) == bs:
        return candidate
    return None
