"""End-to-end solver: from a matrix pair to a union of parameterized cells.

solve scales A and B once into int rows (None for -inf), in units of
1/scale, where scale is the lcm of the denominators of their entries; from
there to the cell keys everything is an int in that unit.  Pipeline per
instance: reduce, classify rows, enumerate win sequences, and for each
sequence solve its equation system, substitute the inequalities onto its
representatives, propagate -inf over them and tighten, looping while
tightening forces variables or extracts equations.  Each surviving
sequence yields one convex cell: variables forced to -inf, parameterized
assignments x_v = t_p + offset, and a canonical list of residual
inequalities over the parameters.  The per-sequence work runs
on int rows (plus, minus, constant).  Each solved sequence yields an int key
in original coordinates; keys are deduplicated and sorted, and only then is
a SolutionCell built per kept key: its ints are divided by their gcd with
the solve's scale, so that every cell holds its numbers in its own lowest
unit and equal cells are equal whatever solve built them.  The cell's
Fractions and Constraints are views derived from those ints on first use.
Within one scenario, each row's part of the system is built once per pair
and shared by the sequences that pick it.

Solutions that silence entire rows (every live column of the row at -inf)
can escape the pairwise-compatibility filter, so the solver additionally
explores silencing scenarios: for each row, the variant instance with that
row's live columns pinned to -inf is solved recursively.  Every scenario is
reduced from the same column masks (preprocess.row_masks, built once per
solve), with its pinned columns dead, so its reduction comes back in
original coordinates.  Scenario cells are deduplicated; the reported
win-sequence count is that of the root instance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from random import Random
from typing import Mapping, Sequence

from .bivariate import (
    Constraint,
    OffsetUnionFind,
    Row,
    remove_and_enlarge,
    sub_specialize,
    substitute,
    build_systems,
)
from .core import (
    NEG_INF,
    DimensionMismatch,
    Matrix,
    Scalar,
    _ratios,
    common_denominator,
    row_maxima,
    scaled_entries,
)
from .preprocess import ReducedInstance, Verdict, reduce_instance, row_masks
from .winseq import (
    Pair,
    WinSequence,
    classify_row,
    enumerate_win_sequences_counted,
    winning_pairs,
)


@dataclass(frozen=True)
class SolutionCell:
    """One convex piece of the solution set, in original coordinates.

    Every variable is either in neg_inf or has an assignment x_v = t_p + o
    with parameter p named after the smallest variable of its class.
    Constraints relate parameters and are satisfied by the all--inf point.
    The numbers are ints in units of 1/scale, where scale is the lcm of the
    cell's own denominators: assigned lists (v, param, offset) sorted by v,
    rows lists (plus, minus, constant) in canonical order.  assignments and
    constraints are the same numbers as Fractions and Constraints, built on
    first use and cached outside the fields, so eq, hash and repr do not
    see them.
    """

    win_sequence: WinSequence
    neg_inf: frozenset[int]
    scale: int
    assigned: tuple[tuple[int, int, int], ...]
    rows: tuple[Row, ...]
    dimension_bound: int
    num_vars: int

    def parameters(self) -> tuple[int, ...]:
        return tuple(sorted({p for _, p, _ in self.assigned}))

    @cached_property
    def assignments(self) -> Mapping[int, tuple[int, Fraction]]:
        return {v: (p, Fraction(o, self.scale)) for v, p, o in self.assigned}

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(Constraint(p, m, Fraction(c, self.scale)) for p, m, c in self.rows)


@dataclass(frozen=True)
class SolveStats:
    """Counts of one solve.

    enum_nodes is the search size of the root instance; collapsed counts the
    sequences, over all scenarios, whose cell is only the all--inf point.
    """

    enum_nodes: int
    scenarios: int
    collapsed: int
    timings: Mapping[str, float]


@dataclass(frozen=True)
class SolutionSet:
    """Union of cells; trivial_only means the all--inf point is the sole solution."""

    cells: tuple[SolutionCell, ...]
    globally_forced: frozenset[int]
    trivial_only: bool
    win_sequence_count: int
    num_vars: int
    stats: SolveStats | None = None


def verify_solution(a: Matrix, b: Matrix, x: Sequence) -> bool:
    """Direct check of the defining equation: both max-plus products agree.

    The shapes are checked first; core.row_maxima then evaluates both sides
    on ints in one unit, with the errors of evaluating A (x) x.
    """
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch("matrix shapes differ")
    maxima, _ = row_maxima((a, b), x)
    return maxima[: a.rows] == maxima[a.rows :]


def dimension_bound(sequence: Sequence[Pair], num_vars: int) -> int:
    """Bound on the cell dimension: num_vars - |linked columns| + |classes|.

    Columns sharing a pair are linked, and linking two classes of columns
    removes one degree of freedom, so the bound is num_vars minus the number
    of pairs that join two classes.
    """
    parent = {c: c for pair in sequence for c in pair}

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    bound = num_vars
    for p, q in sequence:
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rp] = rq
            bound -= 1
    return bound


def _solve_sequence(
    sequence: WinSequence,
    red: ReducedInstance,
    classifications,
    nvars: int,
    systems: dict | None = None,
):
    """Run one win sequence to a fixed point.

    Returns (omega, assignment, residue): reduced-coordinate variables forced
    to -inf, the final potential assignment, and the sub-special residue rows
    over its representatives.  Offsets and constants are ints in the unit of
    red's rows.  systems maps (row h, pair) to the rows build_systems gives
    for that row alone; solve passes one dict per scenario, so that every
    row's system is built once and only concatenated per sequence.

    -inf is tracked over representatives, so a forced representative takes
    its whole equation class with it.  Propagation removes every row
    touching a dead one, so later equations join live representatives only.
    Hence at most nvars + 1 rounds (2 * nvars for nvars >= 1): a round that
    does not return forces a live representative or merges two live ones,
    so the number of live components drops, and with none left it returns.
    """
    if systems is None:
        systems = {}
    eqs: list[Row] = []
    ineqs: list[Row] = []
    for h, pair in enumerate(sequence):
        part = systems.get((h, pair))
        if part is None:
            part = systems[h, pair] = build_systems(
                (pair,), (red.scaled_max[h],), (classifications[h],)
            )
        eqs += part[0]
        ineqs += part[1]
    uf = OffsetUnionFind(nvars)
    dead: frozenset[int] = frozenset()
    while True:
        for row in eqs:
            uf.add_equation(row)
        pa = uf.snapshot(nvars)
        rows, flagged = substitute(ineqs, pa)
        rows, dead = remove_and_enlarge(rows, dead | pa.inconsistent_roots | flagged)
        eqs, ineqs, forced = sub_specialize(rows)
        if forced:
            dead |= forced
        elif not eqs:
            rep = pa.representative
            return {v for v in range(nvars) if rep[v] in dead}, pa, ineqs


def _cell_key(
    sequence: WinSequence,
    omega: set[int],
    pa,
    residue: Sequence[Row],
    red: ReducedInstance,
) -> tuple | None:
    """Identity of one solved sequence's cell, in original coordinates and ints.

    The key is (win sequence, sorted -inf set, sorted (v, param, offset),
    residue rows), with offsets and constants in units of 1/scale, the scale
    of the whole solve; None when the cell is only the all--inf point, which
    lies in every cell.
    """
    orig = red.col_origin
    rep, off = pa.representative, pa.offset
    assigned = [(orig[v], orig[rep[v]], off[v]) for v in range(len(orig)) if v not in omega]
    assigned.extend((f, f, 0) for f in red.free_cols)
    if not assigned:
        return None
    assigned.sort()
    neg = set(red.forced_neg_inf)
    neg.update(orig[v] for v in omega)
    return (
        tuple((orig[p], orig[q]) for p, q in sequence),
        tuple(sorted(neg)),
        tuple(assigned),
        tuple((orig[p], orig[q], c) for p, q, c in residue),
    )


def _unconstrained_key(alive: Sequence[int], num_vars: int) -> tuple:
    """Key of the cell where the alive variables are free and the rest -inf."""
    neg = tuple(sorted(set(range(num_vars)) - set(alive)))
    return ((), neg, tuple((v, v, 0) for v in alive), ())


def _build_cell(key: tuple, num_vars: int, scale: int) -> SolutionCell:
    """The SolutionCell of a kept key, its ints reduced to the cell's own scale."""
    sequence, neg, assigned, rows = key
    g = math.gcd(scale, *(o for _, _, o in assigned), *(c for _, _, c in rows))
    if g > 1:
        assigned = tuple([(v, p, o // g) for v, p, o in assigned])
        rows = tuple([(p, m, c // g) for p, m, c in rows])
    return SolutionCell(
        win_sequence=sequence,
        neg_inf=frozenset(neg),
        scale=scale // g,
        assigned=assigned,
        rows=rows,
        dimension_bound=dimension_bound(sequence, num_vars),
        num_vars=num_vars,
    )


def geometric_key(cell: SolutionCell) -> tuple:
    """Identity of the point set a cell describes, whatever its win sequence.

    Two cells with equal keys have the same -inf set, the same assignments
    and the same constraints (in canonical order): the key is the cell's
    own fields, whose ints are in lowest terms.
    """
    return (tuple(sorted(cell.neg_inf)), cell.scale, cell.assigned, cell.rows)


def solve(a: Matrix, b: Matrix, collect_stats: bool = False) -> SolutionSet:
    """Compute the full solution set of the two-sided system as a cell union."""
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch("matrix shapes differ")
    n = a.cols
    t_start = time.perf_counter()
    timings: dict[str, float] = {}
    # one unit for every scenario, so that int keys compare like Fractions
    scale = common_denominator(v for m in (a, b) for row in m._data for v in row)
    a_rows, b_rows = scaled_entries(a, scale), scaled_entries(b, scale)
    masks = row_masks(a_rows, b_rows, n)

    keys: set[tuple] = set()
    seen: set[frozenset[int]] = set()
    stack: list[frozenset[int]] = [frozenset()]
    root_p = 0
    root_nodes = 0
    scenario_count = 0
    collapsed = 0
    t_enum = 0.0
    t_cells = 0.0

    while stack:
        forced0 = stack.pop()
        if forced0 in seen:
            continue
        seen.add(forced0)
        scenario_count += 1
        red = reduce_instance(masks, dead=forced0)

        if red.verdict is Verdict.TRIVIAL_ONLY:
            continue
        if red.verdict is Verdict.ALL_ROWS_GONE:
            keys.add(_unconstrained_key(sorted(red.free_cols), n))
            continue

        n_red = len(red.col_origin)
        classifications = [
            classify_row(red.a_dom, red.b_dom, i) for i in range(len(red.row_origin))
        ]
        pair_lists = [winning_pairs(c) for c in classifications]
        t0 = time.perf_counter()
        sequences, nodes = enumerate_win_sequences_counted(red.scaled_max, pair_lists)
        t_enum += time.perf_counter() - t0
        if not forced0:
            root_p = len(sequences)
            root_nodes = nodes

        t0 = time.perf_counter()
        systems: dict = {}
        for sequence in sequences:
            omega, pa, residue = _solve_sequence(
                sequence, red, classifications, n_red, systems
            )
            key = _cell_key(sequence, omega, pa, residue, red)
            if key is None:
                collapsed += 1
            else:
                keys.add(key)
        t_cells += time.perf_counter() - t0

        for cls in classifications:
            child = forced0 | {c for j, c in enumerate(red.col_origin) if j not in cls.dead}
            if len(child) < n and child not in seen:
                stack.append(child)

    t0 = time.perf_counter()
    cells = tuple(_build_cell(key, n, scale) for key in sorted(keys))
    t_cells += time.perf_counter() - t0
    if cells:
        forced_everywhere = frozenset.intersection(*(c.neg_inf for c in cells))
    else:
        forced_everywhere = frozenset(range(n))
    timings["enumerate"] = t_enum
    timings["cells"] = t_cells
    timings["total"] = time.perf_counter() - t_start
    stats = SolveStats(root_nodes, scenario_count, collapsed, timings) if collect_stats else None
    return SolutionSet(
        cells=cells,
        globally_forced=forced_everywhere,
        trivial_only=not cells,
        win_sequence_count=root_p,
        num_vars=n,
        stats=stats,
    )


def cell_membership(cell: SolutionCell, x: Sequence) -> bool:
    """Exact membership test of a vector in one cell.

    Variables sharing a parameter must be -inf together or agree on the
    parameter value; a constraint with -inf on its plus side holds, while
    -inf on the minus side demands the plus side be -inf as well.  The test
    runs on ints: x and the cell's numbers are scaled to one unit, the lcm
    of the cell's scale and the denominators of x, on every call.
    """
    parts = _ratios(x)
    if len(parts) != cell.num_vars:
        raise DimensionMismatch(
            f"vector of length {len(parts)} against {cell.num_vars} variables"
        )
    for v in cell.neg_inf:
        if parts[v] is not None:
            return False
    scale = unit = cell.scale
    for part in parts:
        if part is not None and unit % part[1]:
            unit = math.lcm(unit, part[1])
    factor = unit // scale
    values: dict[int, int | None] = {}
    for v, param, offset in cell.assigned:
        part = parts[v]
        t = None if part is None else part[0] * (unit // part[1]) - offset * factor
        if param in values:
            if values[param] != t:
                return False
        else:
            values[param] = t
    for plus, minus, constant in cell.rows:
        tp = values[plus]
        if tp is None:
            continue
        tm = values[minus]
        if tm is None:
            return False
        if tp - tm + constant * factor > 0:
            return False
    return True


def _closed_dead_set(cell: SolutionCell, rng: Random, params: Sequence[int]) -> set[int]:
    dead = {p for p in params if rng.random() < 0.3}
    changed = True
    while changed:
        changed = False
        for plus, minus, _ in cell.rows:
            if minus in dead and plus not in dead:
                dead.add(plus)
                changed = True
    return dead


def _feasible_values(
    cell: SolutionCell, alive: Sequence[int], rng: Random, box: int
) -> dict[int, int]:
    """A feasible assignment for the alive parameters, in the cell's int units.

    Tries plain rejection first; falls back to shortest-path potentials
    (shifted randomly per weakly connected component), which always satisfy
    the difference constraints.  Draws are whole numbers, scaled by the
    cell's scale.
    """
    scale = cell.scale
    active = [row for row in cell.rows if row[0] in alive and row[1] in alive]
    for _ in range(40):
        vals = {p: rng.randint(-box, box) * scale for p in alive}
        if all(vals[plus] - vals[minus] + c <= 0 for plus, minus, c in active):
            return vals
    # Bellman-Ford from a virtual source: d_p <= d_m - constant
    vals = {p: 0 for p in alive}
    for _ in range(len(alive) + 1):
        changed = False
        for plus, minus, c in active:
            bound = vals[minus] - c
            if vals[plus] > bound:
                vals[plus] = bound
                changed = True
        if not changed:
            break
    neighbors: dict[int, set[int]] = {p: set() for p in alive}
    for plus, minus, _ in active:
        neighbors[plus].add(minus)
        neighbors[minus].add(plus)
    visited: set[int] = set()
    for p in sorted(alive):
        if p in visited:
            continue
        component = []
        queue = [p]
        while queue:
            q = queue.pop()
            if q in visited:
                continue
            visited.add(q)
            component.append(q)
            queue.extend(neighbors[q])
        shift = rng.randint(-box, box) * scale
        for q in component:
            vals[q] += shift
    return vals


def _positive_int(name: str, value) -> None:
    """TypeError unless value is an int and not a bool, ValueError if below 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def sample_cell(
    cell: SolutionCell, count: int, seed: int = 0, box: int = 10
) -> list[tuple[Scalar, ...]]:
    """Deterministic members of the cell; the first is the all--inf point.

    Parameters are drawn as whole numbers in [-box, box], box an int >= 1.
    """
    _positive_int("count", count)
    _positive_int("box", box)
    rng = Random(seed)
    params = cell.parameters()
    out: list[tuple[Scalar, ...]] = [tuple(NEG_INF for _ in range(cell.num_vars))]
    while len(out) < count:
        dead = _closed_dead_set(cell, rng, params)
        alive = [p for p in params if p not in dead]
        vals = _feasible_values(cell, alive, rng, box) if alive else {}
        point: list[Scalar] = [NEG_INF] * cell.num_vars
        for v, param, offset in cell.assigned:
            if param in dead:
                continue
            point[v] = Fraction(vals[param] + offset, cell.scale)
        out.append(tuple(point))
    return out[:count]
