"""Bivariate constraint systems attached to a win sequence.

Every relation produced by the solver is a normal form x_plus - x_minus + c
with an exact constant c.  Inside the cell stage a relation is a plain row
tuple (plus, minus, constant) and the list it sits in gives its kind:
equation rows mean = 0, inequality rows mean <= 0.  The equation system S
is kept in reduced form as its equations arrive (OffsetUnionFind): every
variable is its component's smallest member plus an offset, so substitute
reads it as it stands, and the cell stage reads its cell key off it
directly.  The union-find is the one form of S: solve_equations returns it
too.  Every set of variables here is an int bitmask (bit v for variable
v): the inconsistent components, the flagged and the forced
representatives, and the -inf set that remove_and_enlarge closes.
Inequalities are tightened by difference-constraint analysis: negative
cycles force variables to -inf, opposite rows of zero width become
equations, and per ordered pair only the tightest row survives.  close is
the one shortest-path closure of such a system, shared by sub_specialize
and the cell sampler (cells._feasible_values).

Every step only adds, subtracts and compares constants, so the cell stage
runs on Python ints: build_systems reads a maximum-matrix row scaled by one
common denominator per solve, every constant and offset is an int in units
of 1/scale, and the cells that cells.solve keeps store their rows as ints
too, each cell in its own lowest unit.  The public eq and leq read their
constants with core.as_scalar (a float, a bool or -inf raises), and
build_systems orients its own int rows without the reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import NEG_INF, TropicalError, as_scalar
from .preprocess import columns
from .winseq import RowClassification

# (plus, minus, constant): x_plus - x_minus + constant, = 0 or <= 0 by list
Row = tuple[int, int, "int | Fraction"]


@dataclass(frozen=True)
class Constraint:
    """Validated inequality x_plus - x_minus + constant <= 0.

    The type of SolutionCell.constraints, the view a cell derives from its
    int rows: plus != minus, and the constant is a public number (core.unscaled).
    """

    plus: int
    minus: int
    constant: int | Fraction

    def __post_init__(self):
        if self.plus == self.minus:
            raise TropicalError("constraint endpoints must differ")


def _constant(value) -> int | Fraction:
    """A row constant as core.as_scalar reads it; -inf raises ValueError."""
    c = as_scalar(value)
    if c is NEG_INF:
        raise ValueError("a row constant must be finite, not -inf")
    return c


def _oriented(plus: int, minus: int, c) -> Row:
    """Equation row in canonical orientation: the smaller index carries +1."""
    if plus > minus:
        return minus, plus, -c
    return plus, minus, c


def eq(plus: int, minus: int, constant) -> Row:
    """Equation row x_plus - x_minus + constant = 0, in canonical orientation."""
    return _oriented(plus, minus, _constant(constant))


def leq(plus: int, minus: int, constant) -> Row:
    """Inequality row x_plus - x_minus + constant <= 0."""
    return plus, minus, _constant(constant)


class OffsetUnionFind:
    """The equation system S in reduced form, updated as each equation arrives.

    x_v = x_representative[v] + offset[v] at every moment: the representative
    is the smallest member of v's component and carries offset 0, so the
    lists can be read as they stand (substitute reads only these two).  A
    component whose equations close a cycle with nonzero residual is
    inconsistent: over the reals it has no solution, over the tropical
    scalars every member is -inf, and its offsets mean nothing.  The int
    mask inconsistent_roots holds the bit of its representative.  Merging
    two components relabels the one with the larger representative, drop,
    in one pass over the variables v >= drop (drop is its smallest member):
    O(n) per merge, at most n - 1 merges, and no parent chains to walk when
    reading.
    """

    def __init__(self, n: int):
        self.representative = list(range(n))
        self.offset: list[int | Fraction] = [0] * n
        self.inconsistent_roots = 0

    def add_equation(self, row: Row) -> None:
        """Absorb the equation row x_plus - x_minus + c = 0, flagging inconsistent cycles."""
        plus, minus, constant = row
        rep, off = self.representative, self.offset
        rp, rm = rep[plus], rep[minus]
        # x_plus = x_minus - c, hence x_rp - x_rm = off[minus] - c - off[plus]
        shift = off[minus] - constant - off[plus]
        if rp == rm:
            if shift != 0:
                self.inconsistent_roots |= 1 << rp
            return
        if rp < rm:
            keep, drop, shift = rp, rm, -shift  # x_rm = x_rp + shift
        else:
            keep, drop = rm, rp  # x_rp = x_rm + shift
        for v in range(drop, len(rep)):
            if rep[v] == drop:
                rep[v] = keep
                off[v] += shift
        bad = self.inconsistent_roots
        if bad >> drop & 1:
            self.inconsistent_roots = bad ^ (1 << drop) | 1 << keep

    def snapshot(self) -> tuple[tuple[int, ...], tuple[int | Fraction, ...], int]:
        """(representative, offset, inconsistent_roots) as they stand, in one plain tuple.

        For tests that compare a solved sequence's S by value; the solver
        never calls it (the benchmark's traced run still wraps it by name).
        """
        return tuple(self.representative), tuple(self.offset), self.inconsistent_roots


def solve_equations(equations: Iterable[Row], num_vars: int) -> OffsetUnionFind:
    """Solve a system of bivariate equation rows over variables 0..num_vars-1."""
    uf = OffsetUnionFind(num_vars)
    for row in equations:
        uf.add_equation(row)
    return uf


def build_systems(
    pair: tuple[int, int], row: Sequence[int | None], classification: RowClassification
) -> tuple[list[Row], list[Row]]:
    """Equation and inequality rows of one win-sequence row with pair (i1, i2).

    row is the maximum-matrix row the pair belongs to, scaled to exact ints
    (None for -inf, see preprocess.RowMasks.maximum), and classification is
    its RowClassification; the constants come out in the units of row.  The
    pair contributes the equation x_i2 - x_i1 + (m_i2 - m_i1) = 0
    (tautological and skipped when i1 = i2) and, for every column j of the
    row's live support (a_wins | b_wins | ties) outside the pair, in
    increasing order, the inequality x_j - x_i1 + (m_j - m_i1) <= 0
    obtained by eliminating the common row value.  A column that is not
    live is in no class, so it takes part in no row.  A sequence's system
    is its rows' parts, concatenated in order.
    """
    i1, i2 = pair
    base = row[i1]
    eqs = [_oriented(i2, i1, row[i2] - base)] if i1 != i2 else []
    cls = classification
    support = (cls.a_wins | cls.b_wins | cls.ties) & ~(1 << i1 | 1 << i2)
    return eqs, [(j, i1, row[j] - base) for j in columns(support)]


def remove_and_enlarge(ineqs: Iterable[Row], omega: int) -> tuple[list[Row], int]:
    """Propagate -inf through inequality rows to a fixed point.

    omega is the int mask of the variables at -inf.  A row whose plus side
    is -inf holds vacuously; one whose minus side is -inf forces the plus
    side to -inf.  Returns the rows that touch no variable of the enlarged
    mask, and that mask.  The cell stage calls it on rows over component
    representatives (see substitute), so that forcing a representative
    forces its whole equation component with it.
    """
    work = list(ineqs)
    if not omega:
        return work, 0
    changed = True
    while changed:
        changed = False
        keep = []
        for row in work:
            plus, minus, _ = row
            if omega >> plus & 1:
                continue
            if omega >> minus & 1:
                omega |= 1 << plus
                changed = True
            else:
                keep.append(row)
        work = keep
    return work, omega


def substitute(ineqs: Iterable[Row], uf: OffsetUnionFind) -> tuple[list[Row], int]:
    """Rewrite inequality rows over component representatives.

    A row whose endpoints share a representative either drops (constant
    <= 0, a tautology) or flags the component as infeasible over the reals;
    the int mask of flagged representatives is returned for the caller to
    force to -inf.  Rows touching an inconsistent component are mapped too,
    with meaningless constants; that component is -inf throughout, so the
    caller must seed remove_and_enlarge with uf.inconsistent_roots, which
    drops those rows.  Only uf.representative and uf.offset are read, in
    reduced form at every moment.
    """
    out: list[Row] = []
    flagged = 0
    rep, offset = uf.representative, uf.offset
    for plus, minus, constant in ineqs:
        rp = rep[plus]
        rm = rep[minus]
        constant = offset[plus] - offset[minus] + constant
        if rp == rm:
            if constant > 0:
                flagged |= 1 << rp
            continue
        out.append((rp, rm, constant))
    return out, flagged


def _canonical_rows(bounds: Mapping[tuple[int, int], int | Fraction]) -> list[Row]:
    """Rows ordered by (smaller index, larger index, positive orientation first)."""
    ordered = sorted(
        (p, m, 0, c) if p < m else (m, p, 1, c) for (p, m), c in bounds.items()
    )
    return [(lo, hi, c) if flip == 0 else (hi, lo, c) for lo, hi, flip, c in ordered]


def close(nodes: Sequence[int], best: Mapping[tuple[int, int], int | Fraction]) -> list[list]:
    """Shortest-path closure of a difference-constraint system on nodes.

    best maps (plus, minus) to the tightest constant of x_plus - x_minus +
    constant <= 0, which is an edge minus -> plus of weight -constant.  The
    len(nodes)**2 ordered pairs are looked up in best, so its rows that
    leave the node set are not read.  dist[u][v] (Floyd-Warshall) is None
    when there is no path from nodes[u] to nodes[v], and otherwise, when
    no cycle is negative, the lightest path weight; dist[u][u] is then 0.
    With a negative cycle the entries are weights of some walks: dist[u][u]
    is negative for every node on a negative simple cycle, and only for
    nodes whose strongly connected component holds one.

    Closing only the cyclic core, the nodes that are the plus side of one
    row and the minus side of another, gives the same core entries as
    closing every variable: a variable outside the core has no edge in or
    no edge out, so it lies on no path between two others, and as a pivot
    it changes only its own row or column.  This is how sub_specialize
    finds its negative cycles in a core of three or more variables (the
    zone/DBM view of Bengtsson & Yi, "Timed automata: semantics, algorithms
    and tools", LNCS 3098, 2004); a smaller core it reads without a closure.
    """
    nv = len(nodes)
    dist: list[list[int | Fraction | None]] = [[None] * nv for _ in range(nv)]
    for u, m in enumerate(nodes):
        row_u = dist[u]
        row_u[u] = 0
        for v, p in enumerate(nodes):
            c = best.get((p, m))
            if c is not None:
                row_u[v] = -c
    for k in range(nv):
        row_k = dist[k]
        for row_i in dist:
            dik = row_i[k]
            if dik is None:
                continue
            for j, dkj in enumerate(row_k):
                if dkj is None:
                    continue
                through = dik + dkj
                dij = row_i[j]
                if dij is None or through < dij:
                    row_i[j] = through
    return dist


def sub_specialize(ineqs: Sequence[Row]) -> tuple[list[Row], list[Row], int]:
    """Tighten an inequality system into equations, a residue, and forced vars.

    Per ordered variable pair only the tightest row is kept (a row with a
    smaller constant is superfluous).  The difference-constraint digraph
    (edge minus -> plus, weight -constant) is closed under shortest paths:
    the variables it flags on a negative cycle must be -inf over the
    tropical scalars and are reported as the int mask forced, with
    propagation, which reaches the rest of their component, left to the
    caller; adjacent opposite rows of zero width turn into one equation
    each.  The residue is canonically ordered and sub-special
    (is_sub_special in tests/test_bivariate.py checks that structure), and
    2*len(eqs) + len(residue) never exceeds len(ineqs).

    Every cycle runs through the cyclic core, the variables that are the
    plus side of one kept row and the minus side of another (the masks
    heads and tails, and core the columns of heads & tails).  A core of
    fewer than two variables holds no cycle, so the kept rows are the
    residue.  In a core of two, p < m, the only cycle is the 2-cycle
    through best[p, m] and best[m, p], if both are kept: a positive sum of
    the two constants forces both variables, and a zero sum is the one
    equation (p, m, best[p, m]).  Only a core of three or more is closed
    (see close), and the closure is read only on its diagonal.  A row
    whose plus and minus are the same variable is rejected, as Constraint
    rejects it.
    """
    best: dict[tuple[int, int], int | Fraction] = {}
    heads = tails = 0
    for plus, minus, constant in ineqs:
        if plus == minus:
            raise TropicalError("constraint endpoints must differ")
        key = (plus, minus)
        old = best.get(key)
        if old is None:
            best[key] = constant
            heads |= 1 << plus
            tails |= 1 << minus
        elif constant > old:
            best[key] = constant

    core = columns(heads & tails)
    if len(core) < 2:
        return [], _canonical_rows(best), 0
    eqs: list[Row] = []
    if len(core) == 2:
        # the only cycle is the 2-cycle through both rows between p < m
        p, m = core
        up, down = best.get((p, m)), best.get((m, p))
        if up is not None and down is not None:
            total = up + down  # the 2-cycle weighs -total
            if total > 0:
                return [], _canonical_rows(best), heads & tails
            if total == 0:
                eqs.append((p, m, up))  # p < m: canonical orientation
                del best[(p, m)]
                del best[(m, p)]
        return eqs, _canonical_rows(best), 0

    dist = close(core, best)
    forced = sum(1 << p for i, p in enumerate(core) if dist[i][i] < 0)
    if forced:
        return [], _canonical_rows(best), forced

    # both rows of an opposite pair make both endpoints core variables
    for i, p in enumerate(core):
        for m in core[i + 1:]:
            if (p, m) not in best or (m, p) not in best:
                continue
            width = -best[(p, m)] - best[(m, p)]  # interval length for x_p - x_m
            if width == 0:
                eqs.append((p, m, best[(p, m)]))  # p < m: canonical orientation
                del best[(p, m)]
                del best[(m, p)]

    residue = _canonical_rows(best)
    if 2 * len(eqs) + len(residue) > len(ineqs):
        raise TropicalError("sub-specialization grew the system")  # unreachable
    return eqs, residue, 0
