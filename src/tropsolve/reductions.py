"""Bridges between the kindred max-plus problems and the two-sided solver.

One-sided inequalities reduce to equalities by folding the maximum into one
side; systems with separate unknown blocks concatenate into a single block;
affine systems gain a homogenizing variable that is pinned to zero in every
cell afterwards, on the cell's ints.  Residuation (the principal solution
of A (x) x <= b for a real A) is computed directly in closed form,
x#_j = min_i (b_i - a_ij).  Numbers come in through core.as_scalar (or
core._to_ints for a vector) and go out through core.unscaled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .cells import (
    SolutionCell,
    SolutionSet,
    _positive_int,
    _sample_ints,
    cell_membership,
    solve,
)
from .bivariate import Row
from .preprocess import maximum_matrix
from .core import (
    NEG_INF,
    DimensionMismatch,
    Matrix,
    Scalar,
    UndefinedOperation,
    _to_ints,
    as_scalar,
    matvec_maxplus,
    row_maxima,
    unscaled,
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
    a_rows = [row + (None,) * m for row in c.ints]
    b_rows = [(None,) * n + row for row in d.ints]
    return Matrix._of_ints(a_rows, c.unit, n + m), Matrix._of_ints(b_rows, d.unit, n + m)


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
    return _with_column(inst.a, inst.a_vec), _with_column(inst.b, inst.b_vec)


def _with_column(a: Matrix, vec: Sequence) -> Matrix:
    """[a | vec] on ints, in the lcm of a's unit and vec's denominators."""
    column, unit = _to_ints(vec, a.unit)
    rows = [row + (v,) for row, v in zip(a.in_unit(unit), column)]
    return Matrix._of_ints(rows, unit, a.cols + 1)


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
    pinned_value: Scalar
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

    def sample(self, count: int, seed: int = 0, box: int = 10) -> list[tuple[Scalar, ...]]:
        """Members with the pinned variable already substituted out.

        Base-cell samples where the pinned variable is finite are shifted so
        it hits the pinned value exactly (cells are stable under adding one
        constant to all finite coordinates), on ints over scale, and
        written as public numbers (core.unscaled).  count and box are
        checked as sample_cell checks them: ints (not bools) of at least 1.
        """
        _positive_int("count", count)
        _positive_int("box", box)
        scale, var = self.scale, self.pinned_var
        factor = scale // self.base.scale
        (pin,), _ = _to_ints((self.pinned_value,), scale)
        out: list[tuple[Scalar, ...]] = []
        attempt = 0
        while len(out) < count and attempt < 200:
            for point in _sample_ints(self.base, count + 2, seed + 7919 * attempt, box):
                z = point[var]
                if z is None:
                    continue
                delta = pin - z * factor
                del point[var]
                out.append(tuple([
                    unscaled(None if t is None else t * factor + delta, scale) for t in point
                ]))
                if len(out) == count:
                    break
            attempt += 1
        if len(out) < count:
            raise RuntimeError("could not sample the pinned cell")
        return out


def pin_variable(cell: SolutionCell, var: int, value) -> PinnedCell | None:
    """Specialize a cell by fixing one variable; None if the cell forces it to -inf.

    value goes through as_scalar (a float or bool raises TypeError) and must
    be finite; var must be an int, not a bool, indexing a cell variable.
    """
    val = as_scalar(value)
    if val is NEG_INF:
        raise UndefinedOperation("cannot pin a variable to -inf")
    if isinstance(var, bool) or not isinstance(var, int):
        raise TypeError(f"var must be an int, not {type(var).__name__}")
    if not 0 <= var < cell.num_vars:
        raise DimensionMismatch(f"variable {var} outside a cell of {cell.num_vars} variables")
    if var in cell.neg_inf:
        return None
    (t,), scale = _to_ints((val,), cell.scale)
    factor = scale // cell.scale
    _, param0, off0 = next(entry for entry in cell.assigned if entry[0] == var)
    t0 = t - off0 * factor

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
    """A (x) x = b as the affine system A (x) x (+) -inf = -inf (x) x (+) b.

    b is read by core.as_scalar: an int stays an int, which _with_column
    takes as it is.
    """
    neg = Matrix([[NEG_INF] * a.cols for _ in range(a.rows)], cols=a.cols)
    return AffineInstance(a, neg, tuple([NEG_INF] * a.rows), tuple(map(as_scalar, b)))


def solve_eq_b(a: Matrix, b: Sequence, collect_stats: bool = False) -> PinnedSolutionSet:
    """All solutions of A (x) x = b, valid for matrices with -inf entries."""
    result = solve_affine(eq_b_to_affine(a, b), collect_stats=collect_stats)
    return replace(result, problem="eqb")


def principal_solution(a: Matrix, b: Sequence) -> tuple[Scalar, ...]:
    """Greatest x with A (x) x <= b, for a real matrix A.

    x#_j = min_i (b_i - a_ij), which is -inf when some b_i is -inf
    (Butkovic, Max-linear Systems, 2010).
    """
    if any(v is None for row in a.ints for v in row):
        raise UndefinedOperation("residuation requires a real matrix")
    if a.rows == 0:
        raise DimensionMismatch("residuation needs at least one row")
    bs, unit = _to_ints(b, a.unit)
    if len(bs) != a.rows:
        raise DimensionMismatch(f"vector of length {len(bs)} against {a.rows} rows")
    if None in bs:
        return (NEG_INF,) * a.cols
    rows = a.in_unit(unit)
    return tuple([unscaled(min(v - r[j] for v, r in zip(bs, rows)), unit) for j in range(a.cols)])


def decide_eq_b(a: Matrix, b: Sequence) -> tuple[Scalar, ...] | None:
    """The greatest solution of A (x) x = b for real A, or None if none exists."""
    bs = tuple(map(as_scalar, b))
    candidate = principal_solution(a, bs)
    if matvec_maxplus(a, candidate) == bs:
        return candidate
    return None
