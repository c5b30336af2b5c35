"""End-to-end solver: from a matrix pair to a union of parameterized cells.

Pipeline per instance: reduce, classify rows, enumerate win sequences, and
for each sequence solve its equation system, propagate -inf, substitute into
the inequalities and tighten them, looping while tightening extracts new
equations.  Each surviving sequence yields one convex cell: variables forced
to -inf, parameterized assignments x_v = t_p + offset, and a canonical list
of residual inequalities over the parameters.  The per-sequence work runs
on exact ints, in units of 1/scale of the reduced instance; a cell's
offsets and constants become Fractions when it is assembled.

Solutions that silence entire rows (every live column of the row at -inf)
can escape the pairwise-compatibility filter, so the solver additionally
explores silencing scenarios: for each row, the variant instance with that
row's live columns pinned to -inf is solved recursively.  Scenario cells are
deduplicated; the reported win-sequence count is that of the root instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Mapping, Sequence

from .bivariate import (
    Constraint,
    OffsetUnionFind,
    remove_and_enlarge,
    sub_specialize,
    substitute,
    build_systems,
)
from .core import (
    NEG_INF,
    DimensionMismatch,
    Matrix,
    NegInfinity,
    Scalar,
    as_scalar,
    matvec_maxplus,
    select_columns,
)
from .preprocess import ReducedInstance, Verdict, reduce_instance
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
    """

    win_sequence: WinSequence
    neg_inf: frozenset[int]
    assignments: Mapping[int, tuple[int, Fraction]]
    constraints: tuple[Constraint, ...]
    cycles: tuple[tuple[int, ...], ...]
    free_indices: frozenset[int]
    dimension_bound: int
    num_vars: int

    def parameters(self) -> tuple[int, ...]:
        return tuple(sorted({p for p, _ in self.assignments.values()}))


@dataclass(frozen=True)
class SolveStats:
    enum_nodes: int
    scenarios: int
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
    """Direct check of the defining equation: both max-plus products agree."""
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch("matrix shapes differ")
    return matvec_maxplus(a, x) == matvec_maxplus(b, x)


def dimension_bound(
    sequence: Iterable[Pair], num_vars: int
) -> tuple[int, tuple[tuple[int, ...], ...], frozenset[int]]:
    """Bound on the cell dimension plus the column cycles and free indices.

    Columns sharing a pair are linked; closing under transitivity yields the
    cycles.  The bound is num_vars - |linked columns| + |cycles|.
    """
    pairs = list(sequence)
    cols = sorted({c for pair in pairs for c in pair})
    parent = {c: c for c in cols}

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for p, q in pairs:
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[max(rp, rq)] = min(rp, rq)
    groups: dict[int, list[int]] = {}
    for c in cols:
        groups.setdefault(find(c), []).append(c)
    cycles = tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))
    bound = num_vars - len(cols) + len(cycles)
    free = frozenset(range(num_vars)) - set(cols)
    return bound, cycles, free


def _solve_sequence(
    sequence: WinSequence,
    red: ReducedInstance,
    classifications,
    nvars: int,
):
    """Run one win sequence to a fixed point.

    Returns (omega, assignment, residue): reduced-coordinate variables forced
    to -inf, the final potential assignment, and the sub-special residue over
    its representatives.  Offsets and constants are ints in units of
    1/red.scale.
    """
    eqs, ineqs = build_systems(sequence, red.scaled_max, classifications)
    uf = OffsetUnionFind(nvars)
    omega: set[int] = set()
    while True:
        for c in eqs:
            uf.add_equation(c)
        eqs = []
        pa = uf.snapshot(nvars)
        for root in pa.inconsistent_roots:
            omega.update(pa.components[root])
        # propagate -inf, keeping equation components all-in or all-out
        while True:
            ineqs, omega_f = remove_and_enlarge(ineqs, omega)
            omega = set(omega_f)
            extra = {u for v in omega for u in pa.members(v)} - omega
            if not extra:
                break
            omega |= extra
        live_rows = ineqs
        live_rows, flagged = substitute(live_rows, pa)
        if flagged:
            for root in flagged:
                omega.update(pa.components[root])
            ineqs = live_rows
            continue
        new_eqs, residue, forced = sub_specialize(live_rows)
        if forced:
            for v in forced:
                omega.update(pa.members(v))
            eqs = new_eqs
            ineqs = residue
            continue
        if new_eqs:
            eqs = new_eqs
            ineqs = residue
            continue
        return omega, pa, residue


def _assemble_cell(
    sequence: WinSequence,
    omega: set[int],
    pa,
    residue: Sequence[Constraint],
    red: ReducedInstance,
    colmap: Sequence[int],
    forced_outside: frozenset[int],
    free_original: frozenset[int],
    num_vars: int,
) -> SolutionCell | None:
    """The cell of one solved sequence, in original coordinates and Fractions.

    This is where the int offsets and constants of the cell stage, in units
    of 1/red.scale, become Fractions.
    """

    def orig(reduced_col: int) -> int:
        return colmap[red.col_origin[reduced_col]]

    scale = red.scale

    neg = set(forced_outside)
    neg.update(orig(v) for v in omega)
    nvars_reduced = red.max_matrix.cols
    assignments: dict[int, tuple[int, Fraction]] = {}
    for v in range(nvars_reduced):
        if v in omega:
            continue
        assignments[orig(v)] = (orig(pa.representative[v]), Fraction(pa.offset[v], scale))
    for f in sorted(free_original):
        assignments[f] = (f, Fraction(0))
    if not assignments:
        return None  # only the trivial point: dropped, it lies in every cell
    constraints = tuple(
        Constraint(orig(c.plus), orig(c.minus), Fraction(c.constant, scale), c.kind)
        for c in residue
    )
    mapped_seq = tuple((orig(p), orig(q)) for p, q in sequence)
    bound, cycles, free_idx = dimension_bound(mapped_seq, num_vars)
    return SolutionCell(
        win_sequence=mapped_seq,
        neg_inf=frozenset(neg),
        assignments=assignments,
        constraints=constraints,
        cycles=cycles,
        free_indices=frozenset(free_idx) - frozenset(neg),
        dimension_bound=bound,
        num_vars=num_vars,
    )


def _unconstrained_cell(alive: Sequence[int], num_vars: int) -> SolutionCell:
    assignments = {v: (v, Fraction(0)) for v in sorted(alive)}
    return SolutionCell(
        win_sequence=(),
        neg_inf=frozenset(range(num_vars)) - set(alive),
        assignments=assignments,
        constraints=(),
        cycles=(),
        free_indices=frozenset(alive),
        dimension_bound=num_vars,
        num_vars=num_vars,
    )


def geometric_key(cell: SolutionCell) -> tuple:
    """Identity of the point set a cell describes, whatever its win sequence.

    Two cells with equal keys have the same -inf set, the same assignments
    and the same constraints (all of kind LEQ, in canonical order).
    """
    return (
        tuple(sorted(cell.neg_inf)),
        tuple(sorted((v, p, o) for v, (p, o) in cell.assignments.items())),
        tuple((c.plus, c.minus, c.constant) for c in cell.constraints),
    )


def _cell_key(cell: SolutionCell) -> tuple:
    return (cell.win_sequence, *geometric_key(cell))


def solve(a: Matrix, b: Matrix, collect_stats: bool = False) -> SolutionSet:
    """Compute the full solution set of the two-sided system as a cell union."""
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch("matrix shapes differ")
    n = a.cols
    t_start = time.perf_counter()
    timings: dict[str, float] = {}

    cells_by_key: dict[tuple, SolutionCell] = {}
    seen: set[frozenset[int]] = set()
    stack: list[frozenset[int]] = [frozenset()]
    root_p = 0
    root_nodes = 0
    scenario_count = 0
    t_enum = 0.0
    t_cells = 0.0

    while stack:
        forced0 = stack.pop()
        if forced0 in seen:
            continue
        seen.add(forced0)
        scenario_count += 1
        keep_cols = [j for j in range(n) if j not in forced0]
        if not keep_cols:
            continue
        a0 = select_columns(a, keep_cols)
        b0 = select_columns(b, keep_cols)
        red = reduce_instance(a0, b0)
        forced_all = frozenset(forced0) | {
            keep_cols[c] for c in red.forced_neg_inf
        }
        free_original = frozenset(keep_cols[c] for c in red.free_cols)

        if red.verdict is Verdict.TRIVIAL_ONLY:
            continue
        if red.verdict is Verdict.ALL_ROWS_GONE:
            alive = sorted(set(range(n)) - forced_all)
            if alive:
                cell = _unconstrained_cell(alive, n)
                cells_by_key.setdefault(_cell_key(cell), cell)
            continue

        m_red = red.max_matrix.rows
        n_red = red.max_matrix.cols
        classifications = [
            classify_row(red.a_dom, red.b_dom, i) for i in range(m_red)
        ]
        pair_lists = [winning_pairs(c) for c in classifications]
        t0 = time.perf_counter()
        sequences, nodes = enumerate_win_sequences_counted(red.scaled_max, pair_lists)
        t_enum += time.perf_counter() - t0
        if not forced0:
            root_p = len(sequences)
            root_nodes = nodes

        t0 = time.perf_counter()
        for sequence in sequences:
            omega, pa, residue = _solve_sequence(
                sequence, red, classifications, n_red
            )
            cell = _assemble_cell(
                sequence,
                omega,
                pa,
                residue,
                red,
                keep_cols,
                forced_all,
                free_original,
                n,
            )
            if cell is not None:
                cells_by_key.setdefault(_cell_key(cell), cell)
        t_cells += time.perf_counter() - t0

        for i in range(m_red):
            live = [j for j in range(n_red) if j not in classifications[i].dead]
            child = forced0 | {keep_cols[red.col_origin[j]] for j in live}
            if len(child) < n and child not in seen:
                stack.append(child)

    cells = tuple(cell for _, cell in sorted(cells_by_key.items()))
    if cells:
        forced_everywhere = frozenset.intersection(*(c.neg_inf for c in cells))
    else:
        forced_everywhere = frozenset(range(n))
    timings["enumerate"] = t_enum
    timings["cells"] = t_cells
    timings["total"] = time.perf_counter() - t_start
    stats = SolveStats(root_nodes, scenario_count, timings) if collect_stats else None
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
    -inf on the minus side demands the plus side be -inf as well.
    """
    xs = [as_scalar(v) for v in x]
    if len(xs) != cell.num_vars:
        raise DimensionMismatch(
            f"vector of length {len(xs)} against {cell.num_vars} variables"
        )
    for v in cell.neg_inf:
        if not isinstance(xs[v], NegInfinity):
            return False
    values: dict[int, Scalar] = {}
    for v, (param, offset) in cell.assignments.items():
        val = xs[v]
        t = val if isinstance(val, NegInfinity) else val - offset
        if param in values:
            if values[param] != t:
                return False
        else:
            values[param] = t
    for c in cell.constraints:
        tp = values[c.plus]
        tm = values[c.minus]
        if isinstance(tp, NegInfinity):
            continue
        if isinstance(tm, NegInfinity):
            return False
        if tp - tm + c.constant > 0:
            return False
    return True


def _closed_dead_set(cell: SolutionCell, rng: Random, params: Sequence[int]) -> set[int]:
    dead = {p for p in params if rng.random() < 0.3}
    changed = True
    while changed:
        changed = False
        for c in cell.constraints:
            if c.minus in dead and c.plus not in dead:
                dead.add(c.plus)
                changed = True
    return dead


def _feasible_values(
    cell: SolutionCell, alive: Sequence[int], rng: Random, box: int
) -> dict[int, Fraction]:
    """A feasible assignment for the alive parameters.

    Tries plain rejection first; falls back to shortest-path potentials
    (shifted randomly per weakly connected component), which always satisfy
    the difference constraints.
    """
    active = [
        c
        for c in cell.constraints
        if c.plus in alive and c.minus in alive
    ]
    for _ in range(40):
        vals = {p: Fraction(rng.randint(-box, box)) for p in alive}
        if all(vals[c.plus] - vals[c.minus] + c.constant <= 0 for c in active):
            return vals
    # Bellman-Ford from a virtual source: d_p <= d_m - constant
    vals = {p: Fraction(0) for p in alive}
    for _ in range(len(alive) + 1):
        changed = False
        for c in active:
            bound = vals[c.minus] - c.constant
            if vals[c.plus] > bound:
                vals[c.plus] = bound
                changed = True
        if not changed:
            break
    neighbors: dict[int, set[int]] = {p: set() for p in alive}
    for c in active:
        neighbors[c.plus].add(c.minus)
        neighbors[c.minus].add(c.plus)
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
        shift = Fraction(rng.randint(-box, box))
        for q in component:
            vals[q] += shift
    return vals


def sample_cell(
    cell: SolutionCell, count: int, seed: int = 0, box=10
) -> list[tuple[Scalar, ...]]:
    """Deterministic members of the cell; the first is the all--inf point."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = Random(seed)
    box_int = max(1, int(box))
    params = cell.parameters()
    out: list[tuple[Scalar, ...]] = [tuple(NEG_INF for _ in range(cell.num_vars))]
    while len(out) < count:
        dead = _closed_dead_set(cell, rng, params)
        alive = [p for p in params if p not in dead]
        vals = _feasible_values(cell, alive, rng, box_int) if alive else {}
        point: list[Scalar] = [NEG_INF] * cell.num_vars
        for v, (param, offset) in cell.assignments.items():
            if param in dead:
                continue
            point[v] = vals[param] + offset
        out.append(tuple(point))
    return out[:count]
