"""End-to-end solver: from a matrix pair to a union of parameterized cells.

solve reads the int rows of A and B (None for -inf) in units of 1/scale,
the lcm of the two matrices' units; from there to the cell keys
everything is an int in that unit.  Pipeline per
instance: reduce, classify rows, enumerate win sequences, and for each
sequence solve its equation system, substitute the inequalities onto its
representatives, writing them into one n*n bound array (bivariate.Bounds)
for the first round and again after each round that extracts equations,
propagate -inf over them and tighten, looping while tightening forces
variables or extracts equations (a forcing round's array, narrowed,
carries on to the next round).  A solved sequence
yields its union-find (S in reduced form, and its only form), the int
mask of its representatives forced to -inf, the residue, and the
dimension bound: the number of components right after the sequence's own
equations.  Every set of variables in this stage is an int mask, as the
column sets are from preprocess on; only the public SolutionCell.neg_inf
and SolutionSet.globally_forced are frozensets.  Each surviving
sequence yields one convex cell: variables forced to -inf, parameterized
assignments x_v = t_p + offset, and a canonical list of residual
inequalities over the parameters.  The per-sequence work runs on int rows
(plus, minus, constant) over the n original columns: the reduction only
names the kept rows and the live columns, so classification, enumeration,
the bivariate systems and the cell key all use the original column indices,
and a column that is not live takes part in no row.  Each solved sequence
yields an int key, read off the union-find with nothing frozen (its lists
as they stand when no column is -inf, else one pass over the columns);
keys are deduplicated and sorted, and only then is a SolutionCell built
per kept key: its ints are divided by their gcd with
the solve's scale, so that every cell holds its numbers in its own lowest
unit and equal cells are equal whatever solve built them.  The cell's
assignments and Constraints are views derived from those ints on first
use, their numbers written by core.unscaled.
Within one scenario, each row's part of the system is built once per pair
and shared by the sequences that pick it.

Solutions that silence entire rows (every live column of the row at -inf)
can escape the pairwise-compatibility filter, so the solver additionally
explores silencing scenarios: for each row, the variant instance with that
row's live columns pinned to -inf is solved recursively.  Every scenario is
reduced from the same column masks (preprocess.row_masks, built once per
solve), with its pinned columns dead.  A scenario is its int bitmask of
pinned columns.  solve walks them: it keeps the seen scenarios and the
stack of open ones as ints and sums the counters and timings, while
_solve_scenario runs one scenario from reduction to cell keys and returns
its counters and its children.  A row's child is the parent's mask or'ed
with the row's a_wins, b_wins and ties masks, and a child that pins every
column is skipped (its only solution is the all--inf point).  A scenario
whose reduction keeps no row yields the unconstrained cell over its free
columns, if it has any.  Scenario cells are deduplicated; the reported
win-sequence count is that of the root instance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Mapping, Sequence

from .bivariate import (
    Constraint,
    OffsetUnionFind,
    Row,
    close,
    fill_bounds,
    remove_and_enlarge,
    sub_specialize,
    substitute,
    build_systems,
)
from .core import (
    DimensionMismatch,
    Matrix,
    Scalar,
    TropicalError,
    _to_ints,
    row_maxima,
    unscaled,
)
from .preprocess import ReducedInstance, RowMasks, columns, reduce_instance, row_masks
from .winseq import (
    WinSequence,
    classify_row,
    enumerate_win_sequences_counted,
    winning_pairs,
)


class RoundBoundExceeded(TropicalError):
    """A win sequence did not settle within 2 * nvars + 1 rounds."""


@dataclass(frozen=True)
class SolutionCell:
    """One convex piece of the solution set, in original coordinates.

    Every variable is either in neg_inf or has an assignment x_v = t_p + o
    with parameter p named after the smallest variable of its class.
    Constraints relate parameters and are satisfied by the all--inf point.
    The numbers are ints in units of 1/scale, where scale is the lcm of the
    cell's own denominators: assigned lists (v, param, offset) sorted by v,
    rows lists (plus, minus, constant) in canonical order.  assignments and
    constraints are the same numbers as public numbers (core.unscaled) and
    Constraints, and _plan is cell_membership's reading of the cell; all
    three are built on first use and cached outside the fields, so eq,
    hash and repr do not see them.
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
    def assignments(self) -> Mapping[int, tuple[int, Scalar]]:
        return {v: (p, unscaled(o, self.scale)) for v, p, o in self.assigned}

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(Constraint(p, m, unscaled(c, self.scale)) for p, m, c in self.rows)

    @cached_property
    def _plan(self) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...], tuple[Row, ...]]:
        """The cell as column comparisons: (neg_inf, links, rows), ints over scale.

        Each parameter's anchor is its first assigned column.  A link
        (v, anchor, d) says x_v - x_anchor = d, with d = offset_v -
        offset_anchor.  A row (plus, minus, c) over parameters becomes
        (anchor_plus, anchor_minus, c - offset_plus + offset_minus), since
        t_p = x_anchor - offset_anchor.  So no parameter value is needed:
        the anchor's column stands for its parameter, -inf included.
        """
        anchors: dict[int, tuple[int, int]] = {}
        links = []
        for v, p, o in self.assigned:
            anchor = anchors.get(p)
            if anchor is None:
                anchors[p] = (v, o)
            else:
                links.append((v, anchor[0], o - anchor[1]))
        rows = []
        for plus, minus, c in self.rows:
            ap, op = anchors[plus]
            am, om = anchors[minus]
            rows.append((ap, am, c - op + om))
        return tuple(self.neg_inf), tuple(links), tuple(rows)


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


def _solve_sequence(
    sequence: WinSequence,
    rows: Sequence[Sequence[int | None]],
    classifications,
    nvars: int,
    systems: dict,
):
    """Run one win sequence to a fixed point.

    rows[h] is the maximum-matrix row of the sequence's h-th pair and
    classifications[h] its RowClassification.  Returns (uf, dead, residue,
    bound): the union-find holding S in reduced form, the int mask of its
    representatives forced to -inf (a variable is -inf when its
    representative is), the sub-special residue rows over the
    representatives, and the dimension bound.  Offsets and constants are
    ints in the unit of rows.  systems maps (row h, pair) to the rows
    build_systems gives for that row; _solve_scenario passes one dict per
    scenario, so that every row's system is built once and only
    concatenated per sequence.

    Each row's equation goes into the union-find as that row's part is
    gathered.  The bound is uf.components right after the sequence's own
    equations: each of them that merges two components is a pair joining
    two classes of columns, so the count is num_vars minus those pairs.
    The union-find keeps the equations in reduced form as they arrive, so
    substitute reads it as it stands, and nothing is frozen.  substitute
    writes the bound array once before the first round and again after
    each round that returned equations, which move representatives.  A
    forcing round moves none, so the bound array it read, already narrowed
    by propagation, goes on to the next round as it is.  A round is one
    sub_specialize call on that array; it propagates -inf first
    (remove_and_enlarge) only when something is dead, flagged or
    inconsistent, since otherwise there is nothing to drop.

    -inf is tracked over representatives, so a forced representative takes
    its whole equation class with it.  Propagation removes every row
    touching a dead one, so later equations join live representatives only
    and every member of dead stays a representative.  Hence at most
    nvars + 1 rounds (2 * nvars for nvars >= 1): a round that does not
    return forces a live representative or merges two live ones, so the
    number of live components drops, and with none left it returns.  That
    holds whichever array the next round reads, a fresh one or the forcing
    round's: propagation has dropped every entry touching a dead
    representative before sub_specialize reads it.  The loop enforces a
    looser 2 * nvars + 1 rounds: a sequence still going after that many
    raises RoundBoundExceeded, so that a defect which stops the count from
    dropping fails instead of looping forever.
    """
    uf = OffsetUnionFind(nvars)
    ineqs: list[Row] = []
    for h, pair in enumerate(sequence):
        part = systems.get((h, pair))
        if part is None:
            part = systems[h, pair] = build_systems(pair, rows[h], classifications[h])
        for row in part[0]:
            uf.add_equation(row)
        ineqs += part[1]
    bound = uf.components
    dead = 0
    rounds = 0  # rounds that did not return, counted only on that rare path
    t, flagged = substitute(ineqs, uf)
    while True:
        if dead or flagged or uf.inconsistent_roots:
            t, dead = remove_and_enlarge(t, dead | uf.inconsistent_roots | flagged)
        eqs, ineqs, forced = sub_specialize(t)
        if not eqs and not forced:
            return uf, dead, ineqs, bound
        rounds += 1
        if rounds > 2 * nvars:
            raise RoundBoundExceeded(
                f"win sequence {sequence} over {nvars} variables did not settle in {rounds} rounds"
            )
        dead |= forced  # a forcing round moves no representative: t carries on
        if eqs:
            for row in eqs:
                uf.add_equation(row)
            t, flagged = substitute(ineqs, uf)


def _cell_key(
    sequence: WinSequence,
    uf: OffsetUnionFind,
    dead: int,
    residue: Sequence[Row],
    bound: int,
    red: ReducedInstance,
) -> tuple | None:
    """Identity of one solved sequence's cell, in ints.

    The key is (win sequence, -inf columns, (v, param, offset) per other
    column, residue rows, dimension bound), with offsets and constants in
    units of 1/scale, the scale of the whole solve; None when the cell is
    only the all--inf point, which lies in every cell.  A column is -inf
    when the scenario forces it or its representative is dead.  With
    neither, every column is assigned, and the assignment is the
    union-find's two lists zipped with the column index; otherwise one
    ascending pass over the columns fills both lists.  Either way they come
    out sorted.  A free column takes part in no row, so it is its own
    representative at offset 0.  The bound depends on the sequence alone,
    so it never separates two keys that the other fields do not.
    """
    forced = red.forced
    rep, off = uf.representative, uf.offset
    neg: list[int] = []
    if not dead and not forced:
        assigned = tuple(zip(range(len(rep)), rep, off))
    else:
        assigned = []
        for v, r in enumerate(rep):
            if dead >> r & 1 or forced >> v & 1:
                neg.append(v)
            else:
                assigned.append((v, r, off[v]))
    if not assigned:
        return None
    return sequence, tuple(neg), tuple(assigned), tuple(residue), bound


def _unconstrained_key(free: int, num_vars: int) -> tuple:
    """Key of the cell where the variables of the mask free are free and the rest -inf."""
    neg = tuple(columns(((1 << num_vars) - 1) ^ free))
    return ((), neg, tuple((v, v, 0) for v in columns(free)), (), num_vars)


def _build_cell(key: tuple, num_vars: int, scale: int) -> SolutionCell:
    """The SolutionCell of a kept key, its ints reduced to the cell's own scale.

    One gcd per cell, skipped when the solve's scale is 1: ints over the
    unit 1 are in lowest terms already.  The dimension bound is the key's.
    """
    sequence, neg, assigned, rows, bound = key
    g = 1
    if scale > 1:
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
        dimension_bound=bound,
        num_vars=num_vars,
    )


def geometric_key(cell: SolutionCell) -> tuple:
    """Identity of the point set a cell describes, whatever its win sequence.

    Two cells with equal keys have the same -inf set, the same assignments
    and the same constraints (in canonical order): the key is the cell's
    own fields, whose ints are in lowest terms.
    """
    return (tuple(sorted(cell.neg_inf)), cell.scale, cell.assigned, cell.rows)


def _solve_scenario(
    masks: RowMasks, dead: int, n: int, keys: set[tuple]
) -> tuple[int, int, int, list[int], float, float]:
    """Solve one silencing scenario, the columns of the int mask dead pinned to -inf.

    Reduces the instance from masks with those columns dead, classifies the
    kept rows over the live columns, enumerates their win sequences and
    runs the cell stage on each, adding every kept key to keys.  Returns
    (sequences, nodes, collapsed, children, enumerate time, cell time): the
    scenario's sequence count and search nodes, how many of its sequences
    collapsed to the all--inf point, the child scenario of each kept row
    (dead or'ed with the row's a_wins, b_wins and ties masks), and the
    wall-clock seconds of enumeration and of the cell stage.  A scenario
    whose reduction keeps no row adds the unconstrained cell over its free
    columns, if it has any, and returns int zeros and no child.
    """
    red = reduce_instance(masks, dead)
    if not red.rows:
        if red.free:
            keys.add(_unconstrained_key(red.free, n))
        return 0, 0, 0, [], 0, 0
    classifications = [classify_row(masks, i, red.live) for i in red.rows]
    maxima = [masks.maximum[i] for i in red.rows]
    pair_lists = [winning_pairs(c) for c in classifications]
    children = [dead | cls.a_wins | cls.b_wins | cls.ties for cls in classifications]
    t0 = time.perf_counter()
    sequences, nodes = enumerate_win_sequences_counted(maxima, pair_lists)
    t1 = time.perf_counter()
    systems: dict = {}
    collapsed = 0
    for sequence in sequences:
        solved = _solve_sequence(sequence, maxima, classifications, n, systems)
        key = _cell_key(sequence, *solved, red)
        if key is None:
            collapsed += 1
        else:
            keys.add(key)
    return len(sequences), nodes, collapsed, children, t1 - t0, time.perf_counter() - t1


def solve(a: Matrix, b: Matrix, collect_stats: bool = False) -> SolutionSet:
    """Compute the full solution set of the two-sided system as a cell union.

    The walk over silencing scenarios: every scenario is one int mask of
    dead columns, solved by _solve_scenario, starting from the root (no
    column dead).  The seen scenarios and the stack of open ones are ints;
    a child that pins every column is not visited.  The win-sequence count
    and the search size reported are the root's; collapsed and the two
    stage times are summed over the scenarios, and the cell stage's time
    also takes in building the cells from the sorted keys.
    """
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch("matrix shapes differ")
    n = a.cols
    t_start = time.perf_counter()
    # one unit for every scenario, so that int keys compare like Fractions
    scale = math.lcm(a.unit, b.unit)
    masks = row_masks(a.in_unit(scale), b.in_unit(scale), n)

    full = (1 << n) - 1
    keys: set[tuple] = set()
    seen: set[int] = set()
    stack = [0]
    root_p = root_nodes = collapsed = 0
    t_enum = 0.0
    t_cells = 0.0
    while stack:
        dead = stack.pop()
        if dead in seen:
            continue
        seen.add(dead)
        p, nodes, lost, children, dt_enum, dt_cells = _solve_scenario(masks, dead, n, keys)
        if not dead:
            root_p, root_nodes = p, nodes
        collapsed += lost
        t_enum += dt_enum
        t_cells += dt_cells
        stack += [child for child in children if child != full and child not in seen]

    t0 = time.perf_counter()
    cells = tuple(_build_cell(key, n, scale) for key in sorted(keys))
    t_cells += time.perf_counter() - t0
    # every column when there is no cell: only the all--inf point solves
    forced_everywhere = frozenset(range(n)).intersection(*(c.neg_inf for c in cells))
    timings = {"enumerate": t_enum, "cells": t_cells, "total": time.perf_counter() - t_start}
    stats = SolveStats(root_nodes, len(seen), collapsed, timings) if collect_stats else None
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
    runs on ints: core._to_ints reads x over the lcm of the cell's scale
    and the denominators of x (every entry is read before the length is
    checked).  Then it only compares columns, along the cell's plan
    (SolutionCell._plan): a point finite on a neg_inf column is rejected
    first, then every link x_v - x_anchor = d is checked (both -inf, or
    both finite at that difference), so that each anchor column stands for
    its parameter in the rows x_plus - x_minus + c <= 0 that follow.
    """
    xs, unit = _to_ints(x, cell.scale)
    if len(xs) != cell.num_vars:
        raise DimensionMismatch(
            f"vector of length {len(xs)} against {cell.num_vars} variables"
        )
    neg_inf, links, rows = cell._plan
    for v in neg_inf:
        if xs[v] is not None:
            return False
    factor = unit // cell.scale
    for v, anchor, d in links:
        s = xs[v]
        t = xs[anchor]
        if s is None:
            if t is not None:
                return False
        elif t is None or s - t != d * factor:
            return False
    for plus, minus, c in rows:
        tp = xs[plus]
        if tp is None:
            continue
        tm = xs[minus]
        if tm is None or tp - tm + c * factor > 0:
            return False
    return True


def _feasible_values(
    cell: SolutionCell, alive: Sequence[int], active: Sequence[Row], rng: Random, box: int
) -> dict[int, int]:
    """A feasible assignment for the alive parameters, in the cell's int units.

    active lists the cell's rows between two alive parameters.  Tries
    plain rejection first; falls back to the greatest point <= 0 of
    the active rows, read off the closure (bivariate.close) of their bound
    array as x_q = min_p dist[p][q], and shifted randomly per weakly connected
    component, which always satisfies the difference constraints.  The
    components come from an OffsetUnionFind fed each active row at constant
    0 (so every offset stays 0); each representative, its component's
    smallest member, draws the component's shift, in ascending order.  Draws
    are whole numbers in [-box, box] times the cell's scale.  Each is
    r - box for r = rng.getrandbits(k), k = (2 * box + 1).bit_length(),
    drawn again while r >= 2 * box + 1: that is the one
    Random._randbelow_with_getrandbits(2 * box + 1) call that
    rng.randint(-box, box) makes, so the generator advances alike and the
    draws are randint's (test_feasible_values_draws_as_randint pins this),
    with no Python frame per draw and no range, whatever the size of box.
    """
    scale = cell.scale
    size = 2 * box + 1
    k = size.bit_length()
    getrandbits = rng.getrandbits
    for _ in range(40):
        vals = {}
        for p in alive:
            r = getrandbits(k)
            while r >= size:
                r = getrandbits(k)
            vals[p] = (r - box) * scale
        for plus, minus, c in active:
            if vals[plus] - vals[minus] + c > 0:
                break
        else:
            return vals
    n = cell.num_vars
    bound = fill_bounds(active, n)[1]  # the tightest constant per ordered pair
    into = zip(*close(alive, bound, n))  # per parameter, the path weights into it
    vals = {q: min(d for d in col if d is not None) for q, col in zip(alive, into)}
    components = OffsetUnionFind(n)
    for plus, minus, _ in active:
        components.add_equation((plus, minus, 0))
    rep = components.representative
    shifts: dict[int, int] = {}
    for p in sorted(alive):
        if rep[p] == p:
            r = getrandbits(k)
            while r >= size:
                r = getrandbits(k)
            shifts[p] = (r - box) * scale
        vals[p] += shifts[rep[p]]
    return vals


def _positive_int(name: str, value) -> None:
    """TypeError unless value is an int and not a bool, ValueError if below 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def _sample_ints(cell: SolutionCell, count: int, seed: int, box: int) -> list[list[int | None]]:
    """sample_cell's points as ints over cell.scale, None for -inf (count, box unchecked).

    The drawn and dead parameters are int masks.  The drawn mask
    determines the dead one, and drawn masks repeat from point to point,
    so each one's face is worked out once per call, in a dict keyed by the
    drawn mask: the dead mask (its closure under the rows), the alive
    parameters, the rows between two of them and the live assigned
    triples.  The cell's rows are filled into the bound array that
    propagation (remove_and_enlarge) reads once per call.  Propagation is
    skipped when it can add nothing: with no parameter drawn the dead mask
    is 0, and in a cell without rows it is the drawn mask itself.
    """
    rng = Random(seed)
    random = rng.random
    params = cell.parameters()
    faces: dict[int, tuple[list[int], list[Row], list[tuple[int, int, int]]]] = {}
    rows = cell.rows
    t = fill_bounds(rows, cell.num_vars)
    out: list[list[int | None]] = [[None] * cell.num_vars]
    while len(out) < count:
        drawn = sum(1 << p for p in params if random() < 0.3)
        face = faces.get(drawn)
        if face is None:
            dead = remove_and_enlarge(t, drawn)[1] if drawn and rows else drawn
            alive = [p for p in params if not dead >> p & 1]
            active = [r for r in rows if not dead >> r[0] & 1 and not dead >> r[1] & 1]
            assigned = [a for a in cell.assigned if not dead >> a[1] & 1]
            face = faces[drawn] = alive, active, assigned
        alive, active, assigned = face
        vals = _feasible_values(cell, alive, active, rng, box) if alive else {}
        point: list[int | None] = [None] * cell.num_vars
        for v, param, offset in assigned:
            point[v] = vals[param] + offset
        out.append(point)
    return out[:count]


def sample_cell(
    cell: SolutionCell, count: int, seed: int = 0, box: int = 10
) -> list[tuple[Scalar, ...]]:
    """Deterministic members of the cell; the first is the all--inf point.

    Parameters are drawn as whole numbers in [-box, box], box any int >= 1,
    each by the getrandbits calls that randint(-box, box) makes (see
    _feasible_values), so the points are those of a randint sampler
    (test_sample_cell_matches_the_fraction_sampler, whose reference draws
    with randint, pins this).  Each point first puts every
    parameter at -inf with probability 0.3, then closes that set under the
    cell's rows (remove_and_enlarge): a row with its minus side at -inf
    forces its plus side there too.  The coordinates are public numbers
    (core.unscaled).
    """
    _positive_int("count", count)
    _positive_int("box", box)
    scale = cell.scale
    return [
        tuple([unscaled(t, scale) for t in point])
        for point in _sample_ints(cell, count, seed, box)
    ]
