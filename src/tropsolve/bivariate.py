"""Bivariate constraint systems attached to a win sequence.

Every relation produced by the solver is a normal form x_plus - x_minus + c
with an exact constant c.  Inside the cell stage a relation is a plain row
tuple (plus, minus, constant) and the list it sits in gives its kind:
equation rows mean = 0, inequality rows mean <= 0.  Equations are solved by
a weighted union-find (offsets to the component representative);
inequalities are tightened by difference-constraint analysis: negative
cycles force variables to -inf, opposite rows of zero width become
equations, and per ordered pair only the tightest row survives.

The shortest-path closure of sub_specialize covers only the cyclic core:
the variables that are the plus side of one row and the minus side of
another.  Only its diagonal is read (a negative entry means a negative
cycle), and a variable outside the core lies on no cycle, so its diagonal
entry stays 0.  Floyd-Warshall never improves an entry between two
variables of one strongly connected component through a pivot outside it,
so the core's diagonal, and with it the forced set, is the same as that of
the closure over every variable (the zone/DBM argument of Bengtsson & Yi,
"Timed automata: semantics, algorithms and tools", LNCS 3098, 2004).

Every step only adds, subtracts and compares constants, so the cell stage
runs on Python ints: build_systems reads the maximum matrix scaled by one
common denominator per solve, every constant and offset is an int in units
of 1/scale, and the cells that cells.solve keeps store their rows as ints
too, each cell in its own lowest unit; a Constraint with a Fraction constant
is only a view that a cell derives from one of its rows.  The functions here
accept Fraction constants just as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import TropicalError
from .winseq import RowClassification, WinSequence

# (plus, minus, constant): x_plus - x_minus + constant, = 0 or <= 0 by list
Row = tuple[int, int, "int | Fraction"]


@dataclass(frozen=True)
class Constraint:
    """Validated inequality x_plus - x_minus + constant <= 0.

    The type of SolutionCell.constraints, the view a cell derives from its
    int rows: plus != minus, and the constant is the Fraction value.
    """

    plus: int
    minus: int
    constant: int | Fraction

    def __post_init__(self):
        if self.plus == self.minus:
            raise TropicalError("constraint endpoints must differ")


def _exact(constant) -> int | Fraction:
    """ints and Fractions as they are, anything else through Fraction."""
    return constant if type(constant) in (int, Fraction) else Fraction(constant)


def eq(plus: int, minus: int, constant) -> Row:
    """Equation row in canonical orientation: the smaller index carries +1."""
    c = _exact(constant)
    if plus > minus:
        return minus, plus, -c
    return plus, minus, c


def leq(plus: int, minus: int, constant) -> Row:
    """Inequality row x_plus - x_minus + constant <= 0."""
    return plus, minus, _exact(constant)


@dataclass(frozen=True)
class PotentialAssignment:
    """Result of solving a system of bivariate equations.

    x_v = x_representative[v] + offset[v]; representatives are the smallest
    variable index of their component and carry offset 0.  Components whose
    equations close a cycle with nonzero residual are inconsistent: over the
    reals they have no solution, over the tropical scalars they force every
    member to -inf.
    """

    representative: tuple[int, ...]
    offset: tuple[int | Fraction, ...]
    inconsistent_roots: frozenset[int]
    components: Mapping[int, tuple[int, ...]]

    def members(self, v: int) -> tuple[int, ...]:
        return self.components[self.representative[v]]


class OffsetUnionFind:
    """Union-find tracking x_child = x_parent + shift, with inconsistency flags."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.shift = [0] * n
        self.bad = [False] * n  # meaningful on roots

    def location(self, v: int) -> tuple[int, int | Fraction]:
        """Root of v and the offset x_v - x_root."""
        root = v
        off = 0
        while self.parent[root] != root:
            off += self.shift[root]
            root = self.parent[root]
        return root, off

    def add_equation(self, row: Row) -> None:
        """Absorb the equation row x_plus - x_minus + c = 0, flagging inconsistent cycles."""
        plus, minus, constant = row
        rp, op = self.location(plus)
        rm, om = self.location(minus)
        if rp == rm:
            if op - om + constant != 0:
                self.bad[rp] = True
            return
        # x_plus = x_minus - c, hence x_rp = x_rm + (om - c - op)
        self.parent[rp] = rm
        self.shift[rp] = om - constant - op
        self.bad[rm] = self.bad[rm] or self.bad[rp]

    def snapshot(self, n: int) -> PotentialAssignment:
        """Normalize to smallest-index representatives.

        One pass over the variables in index order: the first member of a
        component seen is its smallest, so it becomes the representative.
        """
        rep = list(range(n))
        offs = [0] * n
        leads: dict[int, tuple[int, int | Fraction]] = {}  # root -> (lead, x_lead - x_root)
        members: dict[int, list[int]] = {}
        bad_roots = set()
        parent, shift = self.parent, self.shift
        for v in range(n):
            root, off = v, 0
            while parent[root] != root:  # location(v), inlined
                off += shift[root]
                root = parent[root]
            lead = leads.get(root)
            if lead is None:
                leads[root] = (v, off)
                members[v] = [v]
                if self.bad[root]:
                    bad_roots.add(v)
            else:
                rep[v] = lead[0]
                offs[v] = off - lead[1]
                members[lead[0]].append(v)
        components = {lead: tuple(group) for lead, group in members.items()}
        return PotentialAssignment(
            tuple(rep), tuple(offs), frozenset(bad_roots), components
        )


def solve_equations(equations: Iterable[Row], num_vars: int) -> PotentialAssignment:
    """Solve a system of bivariate equation rows over variables 0..num_vars-1."""
    uf = OffsetUnionFind(num_vars)
    for row in equations:
        uf.add_equation(row)
    return uf.snapshot(num_vars)


def build_systems(
    sequence: WinSequence,
    rows: Sequence[Sequence[int | None]],
    classifications: Sequence[RowClassification],
) -> tuple[list[Row], list[Row]]:
    """Equation and inequality rows a solution arising from the sequence obeys.

    rows is the maximum matrix scaled to exact ints (None for -inf, see
    ReducedInstance.scaled_max); the constants come out in the same units.
    Row h with pair (i1, i2) contributes the equation
    x_i2 - x_i1 + (m_hi2 - m_hi1) = 0 (tautological and skipped when
    i1 = i2) and, for every live column j outside the pair, the inequality
    x_j - x_i1 + (m_hj - m_hi1) <= 0 obtained by eliminating the common row
    value.
    """
    eqs: list[Row] = []
    ineqs: list[Row] = []
    for h, (i1, i2) in enumerate(sequence):
        row = rows[h]
        dead = classifications[h].dead
        base = row[i1]
        if i1 != i2:
            eqs.append(eq(i2, i1, row[i2] - base))
        for j, value in enumerate(row):
            if j in dead or j == i1 or j == i2:
                continue
            ineqs.append((j, i1, value - base))
    return eqs, ineqs


def remove_and_enlarge(
    ineqs: Iterable[Row], omega: Iterable[int]
) -> tuple[list[Row], frozenset[int]]:
    """Propagate -inf through inequality rows to a fixed point.

    A row whose plus side is -inf holds vacuously; one whose minus side is
    -inf forces the plus side to -inf.  The returned rows touch no variable
    of the enlarged set.  Equations propagate -inf through their components
    (PotentialAssignment.members), not through this function.
    """
    om = set(omega)
    work = list(ineqs)
    if not om:
        return work, frozenset()
    changed = True
    while changed:
        changed = False
        keep = []
        for row in work:
            plus, minus, _ = row
            if plus in om:
                continue
            if minus in om:
                om.add(plus)
                changed = True
            else:
                keep.append(row)
        work = keep
    return work, frozenset(om)


def substitute(
    ineqs: Iterable[Row], pa: PotentialAssignment
) -> tuple[list[Row], frozenset[int]]:
    """Rewrite inequality rows over component representatives.

    A row whose endpoints share a representative either drops (constant
    <= 0, a tautology) or flags the component as infeasible over the reals;
    flagged representatives are returned for the caller to force to -inf.
    """
    out: list[Row] = []
    flagged: set[int] = set()
    rep, offset, bad = pa.representative, pa.offset, pa.inconsistent_roots
    for plus, minus, constant in ineqs:
        rp = rep[plus]
        rm = rep[minus]
        if rp in bad or rm in bad:
            raise TropicalError("substitute on an inconsistent component")
        constant = offset[plus] - offset[minus] + constant
        if rp == rm:
            if constant > 0:
                flagged.add(rp)
            continue
        out.append((rp, rm, constant))
    return out, frozenset(flagged)


def _canonical_rows(bounds: Mapping[tuple[int, int], int | Fraction]) -> list[Row]:
    """Rows ordered by (smaller index, larger index, positive orientation first)."""
    ordered = sorted(
        (p, m, 0, c) if p < m else (m, p, 1, c) for (p, m), c in bounds.items()
    )
    return [(lo, hi, c) if flip == 0 else (hi, lo, c) for lo, hi, flip, c in ordered]


def sub_specialize(
    ineqs: Sequence[Row],
) -> tuple[list[Row], list[Row], frozenset[int]]:
    """Tighten an inequality system into equations, a residue, and forced vars.

    Per ordered variable pair only the tightest row is kept (a row with a
    smaller constant is superfluous).  The difference-constraint digraph
    (edge minus -> plus, weight -constant) is closed under shortest paths:
    variables on a negative cycle must be -inf over the tropical scalars and
    are reported as forced, with propagation left to the caller; adjacent
    opposite rows of zero width turn into one equation each.  The residue is
    canonically ordered and sub-special, and 2*len(eqs) + len(residue) never
    exceeds len(ineqs).

    Only the cyclic core is closed: the variables that are the plus side of
    one kept row and the minus side of another.  The closure is read only on
    its diagonal, and a variable without both edge directions lies on no
    cycle, so its diagonal stays 0.  Within one strongly connected component
    Floyd-Warshall never improves an entry through a pivot outside it (a
    path i -> k -> j back to i would put k in the component), so the core's
    diagonal, and with it the forced set, equals that of the full closure.
    A row whose plus and minus are the same variable is rejected, as
    Constraint rejects it.
    """
    best: dict[tuple[int, int], int | Fraction] = {}
    for plus, minus, constant in ineqs:
        if plus == minus:
            raise TropicalError("constraint endpoints must differ")
        key = (plus, minus)
        old = best.get(key)
        if old is None or constant > old:
            best[key] = constant

    heads = {p for p, _ in best}
    core = sorted({m for _, m in best if m in heads})
    if not core:
        return [], _canonical_rows(best), frozenset()
    index = {v: i for i, v in enumerate(core)}
    nv = len(core)
    dist: list[list[int | Fraction | None]] = [[None] * nv for _ in range(nv)]
    for i in range(nv):
        dist[i][i] = 0
    for (p, m), c in best.items():
        if p in index and m in index:
            u, v = index[m], index[p]
            w = -c
            if dist[u][v] is None or w < dist[u][v]:
                dist[u][v] = w
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

    forced = frozenset(core[i] for i in range(nv) if dist[i][i] < 0)
    if forced:
        return [], _canonical_rows(best), forced

    # both rows of an opposite pair make both endpoints core variables
    eqs: list[Row] = []
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
    return eqs, residue, frozenset()


def is_sub_special(rows: Sequence[Row]) -> bool:
    """Structural check for a canonical irredundant inequality list.

    Rows must be pairwise distinct with distinct variable parts and no exact
    opposites; rows with opposite variable parts must be adjacent, the first
    positively oriented, bounding a nonempty open interval; elsewhere the
    leading variable index must not decrease.
    """
    rows = list(rows)
    seen_full = set()
    seen_parts = set()
    for plus, minus, constant in rows:
        if (plus, minus, constant) in seen_full or (minus, plus, -constant) in seen_full:
            return False
        seen_full.add((plus, minus, constant))
        if (plus, minus) in seen_parts:
            return False
        seen_parts.add((plus, minus))
    for i, (plus, minus, _) in enumerate(rows):
        opposite = (minus, plus)
        if opposite in seen_parts:
            partner = next(k for k, d in enumerate(rows) if d[:2] == opposite)
            if abs(partner - i) != 1:
                return False
            first = rows[min(i, partner)]
            second = rows[max(i, partner)]
            if not first[0] < first[1]:
                return False
            if not first[2] < -second[2]:
                return False
    for c, d in zip(rows, rows[1:]):
        if (c[1], c[0]) == d[:2]:
            continue
        if min(c[0], c[1]) > min(d[0], d[1]):
            return False
    return True
