"""Bivariate constraint systems attached to a win sequence.

Every relation produced by the solver is a normal form x_plus - x_minus + c
(= 0 or <= 0) with an exact constant c.  Equations are solved by a weighted
union-find (offsets to the component representative); inequalities are
tightened by difference-constraint analysis: negative cycles force variables
to -inf, opposite rows of zero width become equations, and per ordered pair
only the tightest row survives.

Every step only adds, subtracts and compares constants, so the cell stage
runs on Python ints: build_systems reads the maximum matrix scaled by the
lcm of its denominators, every constant and offset is an int in units of
1/scale, and cells.solve turns them back into Fractions when it assembles a
cell.  The functions here accept Fraction constants just as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import TropicalError
from .winseq import RowClassification, WinSequence

EQ = "eq"
LEQ = "leq"


@dataclass(frozen=True)
class Constraint:
    """Normal form x_plus - x_minus + constant  (= 0 for EQ, <= 0 for LEQ).

    Tautologies and contradictions are resolved where constraints are built,
    never stored, so plus != minus always.  Inside the cell stage the
    constant is an int in units of 1/scale (see the module docstring);
    constraints of a SolutionCell carry the Fraction value.
    """

    plus: int
    minus: int
    constant: int | Fraction
    kind: str = LEQ

    def __post_init__(self):
        if self.plus == self.minus:
            raise TropicalError("constraint endpoints must differ")
        if self.kind not in (EQ, LEQ):
            raise TropicalError(f"unknown constraint kind {self.kind!r}")


def _exact(constant) -> int | Fraction:
    """ints and Fractions as they are, anything else through Fraction."""
    return constant if type(constant) in (int, Fraction) else Fraction(constant)


def eq(plus: int, minus: int, constant) -> Constraint:
    """Equation in canonical orientation: the smaller index carries +1."""
    c = _exact(constant)
    if plus > minus:
        plus, minus, c = minus, plus, -c
    return Constraint(plus, minus, c, EQ)


def leq(plus: int, minus: int, constant) -> Constraint:
    return Constraint(plus, minus, _exact(constant), LEQ)


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

    def add_equation(self, constraint: Constraint) -> None:
        """Absorb x_plus - x_minus + c = 0, flagging inconsistent cycles."""
        if constraint.kind != EQ:
            raise TropicalError("add_equation expects an equation")
        rp, op = self.location(constraint.plus)
        rm, om = self.location(constraint.minus)
        if rp == rm:
            if op - om + constraint.constant != 0:
                self.bad[rp] = True
            return
        # x_plus = x_minus - c, hence x_rp = x_rm + (om - c - op)
        self.parent[rp] = rm
        self.shift[rp] = om - constraint.constant - op
        self.bad[rm] = self.bad[rm] or self.bad[rp]

    def snapshot(self, n: int) -> PotentialAssignment:
        """Normalize to smallest-index representatives."""
        groups: dict[int, list[int]] = {}
        locs = {}
        for v in range(n):
            root, off = self.location(v)
            locs[v] = (root, off)
            groups.setdefault(root, []).append(v)
        rep = [0] * n
        offs = [0] * n
        components = {}
        bad_roots = set()
        for root, members in groups.items():
            members.sort()
            lead = members[0]
            lead_off = locs[lead][1]
            components[lead] = tuple(members)
            for v in members:
                rep[v] = lead
                offs[v] = locs[v][1] - lead_off
            if self.bad[root]:
                bad_roots.add(lead)
        return PotentialAssignment(
            tuple(rep), tuple(offs), frozenset(bad_roots), components
        )


def solve_equations(equations: Iterable[Constraint], num_vars: int) -> PotentialAssignment:
    """Solve a system of bivariate equations over variables 0..num_vars-1."""
    uf = OffsetUnionFind(num_vars)
    for c in equations:
        uf.add_equation(c)
    return uf.snapshot(num_vars)


def build_systems(
    sequence: WinSequence,
    rows: Sequence[Sequence[int | None]],
    classifications: Sequence[RowClassification],
) -> tuple[list[Constraint], list[Constraint]]:
    """Equation and inequality systems a solution arising from the sequence obeys.

    rows is the maximum matrix scaled to exact ints (None for -inf, see
    ReducedInstance.scaled_max); the constants come out in the same units.
    Row h with pair (i1, i2) contributes the equation
    x_i2 - x_i1 + (m_hi2 - m_hi1) = 0 (tautological and skipped when
    i1 = i2) and, for every live column j outside the pair, the inequality
    x_j - x_i1 + (m_hj - m_hi1) <= 0 obtained by eliminating the common row
    value.
    """
    eqs: list[Constraint] = []
    ineqs: list[Constraint] = []
    for h, (i1, i2) in enumerate(sequence):
        row = rows[h]
        dead = classifications[h].dead
        base = row[i1]
        if i1 != i2:
            eqs.append(eq(i2, i1, row[i2] - base))
        for j, value in enumerate(row):
            if j in dead or j == i1 or j == i2:
                continue
            ineqs.append(Constraint(j, i1, value - base, LEQ))
    return eqs, ineqs


def remove_and_enlarge(
    constraints: Iterable[Constraint], omega: Iterable[int]
) -> tuple[list[Constraint], frozenset[int]]:
    """Propagate -inf through a constraint list to a fixed point.

    An inequality whose plus side is -inf holds vacuously; one whose minus
    side is -inf forces the plus side to -inf; an equation propagates -inf
    both ways.  The returned system touches no variable of the enlarged set.
    """
    om = set(omega)
    work = list(constraints)
    changed = True
    while changed:
        changed = False
        keep = []
        for c in work:
            p_in = c.plus in om
            m_in = c.minus in om
            if c.kind == EQ:
                if p_in or m_in:
                    if not (p_in and m_in):
                        om.add(c.minus if p_in else c.plus)
                    changed = True
                else:
                    keep.append(c)
            else:
                if p_in:
                    changed = True
                elif m_in:
                    om.add(c.plus)
                    changed = True
                else:
                    keep.append(c)
        work = keep
    return work, frozenset(om)


def substitute(
    ineqs: Iterable[Constraint], pa: PotentialAssignment
) -> tuple[list[Constraint], frozenset[int]]:
    """Rewrite inequalities over component representatives.

    A row whose endpoints share a representative either drops (constant
    <= 0, a tautology) or flags the component as infeasible over the reals;
    flagged representatives are returned for the caller to force to -inf.
    """
    out: list[Constraint] = []
    flagged: set[int] = set()
    for c in ineqs:
        if c.kind != LEQ:
            raise TropicalError("substitute expects inequalities")
        rp = pa.representative[c.plus]
        rm = pa.representative[c.minus]
        if rp in pa.inconsistent_roots or rm in pa.inconsistent_roots:
            raise TropicalError("substitute on an inconsistent component")
        constant = pa.offset[c.plus] - pa.offset[c.minus] + c.constant
        if rp == rm:
            if constant > 0:
                flagged.add(rp)
            continue
        out.append(Constraint(rp, rm, constant, LEQ))
    return out, frozenset(flagged)


def _canonical_rows(bounds: Mapping[tuple[int, int], int | Fraction]) -> list[Constraint]:
    ordered = sorted(
        bounds.items(),
        key=lambda item: (
            min(item[0]),
            max(item[0]),
            0 if item[0][0] < item[0][1] else 1,
        ),
    )
    return [Constraint(p, m, c, LEQ) for (p, m), c in ordered]


def sub_specialize(
    ineqs: Sequence[Constraint],
) -> tuple[list[Constraint], list[Constraint], frozenset[int]]:
    """Tighten an inequality system into equations, a residue, and forced vars.

    Per ordered variable pair only the tightest row is kept (a row with a
    smaller constant is superfluous).  The difference-constraint digraph
    (edge minus -> plus, weight -constant) is closed under shortest paths:
    variables on a negative cycle must be -inf over the tropical scalars and
    are reported as forced, with propagation left to the caller; adjacent
    opposite rows of zero width turn into one equation each.  The residue is
    canonically ordered and sub-special, and 2*len(eqs) + len(residue) never
    exceeds len(ineqs).
    """
    best: dict[tuple[int, int], int | Fraction] = {}
    consumed = 0
    for c in ineqs:
        if c.kind != LEQ:
            raise TropicalError("sub_specialize expects inequalities")
        key = (c.plus, c.minus)
        consumed += 1
        if key not in best or c.constant > best[key]:
            best[key] = c.constant

    variables = sorted({v for key in best for v in key})
    index = {v: i for i, v in enumerate(variables)}
    nv = len(variables)
    dist: list[list[int | Fraction | None]] = [[None] * nv for _ in range(nv)]
    for i in range(nv):
        dist[i][i] = 0
    for (p, m), c in best.items():
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

    forced = frozenset(variables[i] for i in range(nv) if dist[i][i] < 0)
    if forced:
        return [], _canonical_rows(best), forced

    eqs: list[Constraint] = []
    for (p, m) in sorted(best):
        if p > m or (m, p) not in best:
            continue
        width = -best[(p, m)] - best[(m, p)]  # interval length for x_p - x_m
        if width == 0:
            eqs.append(eq(p, m, best[(p, m)]))
            del best[(p, m)]
            del best[(m, p)]

    residue = _canonical_rows(best)
    if 2 * len(eqs) + len(residue) > consumed:
        raise TropicalError("sub-specialization grew the system")  # unreachable
    return eqs, residue, frozenset()


def is_sub_special(rows: Sequence[Constraint]) -> bool:
    """Structural check for a canonical irredundant inequality list.

    Rows must be pairwise distinct with distinct variable parts and no exact
    opposites; rows with opposite variable parts must be adjacent, the first
    positively oriented, bounding a nonempty open interval; elsewhere the
    leading variable index must not decrease.
    """
    rows = list(rows)
    seen_full = set()
    seen_parts = set()
    for c in rows:
        if c.kind != LEQ:
            return False
        full = (c.plus, c.minus, c.constant)
        if full in seen_full or (c.minus, c.plus, -c.constant) in seen_full:
            return False
        seen_full.add(full)
        if (c.plus, c.minus) in seen_parts:
            return False
        seen_parts.add((c.plus, c.minus))
    for i, c in enumerate(rows):
        opposite = (c.minus, c.plus)
        if opposite in seen_parts:
            partner = next(k for k, d in enumerate(rows) if (d.plus, d.minus) == opposite)
            if abs(partner - i) != 1:
                return False
            first = rows[min(i, partner)]
            second = rows[max(i, partner)]
            if not first.plus < first.minus:
                return False
            if not first.constant < -second.constant:
                return False
    for i in range(len(rows) - 1):
        c, d = rows[i], rows[i + 1]
        if (c.minus, c.plus) == (d.plus, d.minus):
            continue
        if min(c.plus, c.minus) > min(d.plus, d.minus):
            return False
    return True
