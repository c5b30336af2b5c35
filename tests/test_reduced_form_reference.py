"""The cell stage on the reduced form of S against the snapshot-per-round loop.

cells._solve_sequence keeps the equation system S in reduced form as its
equations arrive (bivariate.OffsetUnionFind), hands the union-find itself to
substitute every round and freezes it once, when the sequence returns; and
cells._build_cell skips the gcd when the solve's scale is 1.
ref_solve_sequence and ref_build_cell below are the earlier versions: a
parent-pointer forest (conftest.ParentPointerUnionFind) normalized into a
PotentialAssignment every round, and one gcd per cell.  With both swapped
into cells, solve must give the same --format json, byte for byte, on
seeded draws: planted all-finite 3x8 pairs (every sequence builds a large
inequality system), planted and unplanted 7x7 pairs with -inf at density
0.3, and planted pairs with rational entries, whose scale is above 1.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from functools import partial

from conftest import ParentPointerUnionFind, dimension_bound, planted_rows
from tropsolve import Matrix, NEG_INF, cells
from tropsolve.bivariate import build_systems, remove_and_enlarge, sub_specialize, substitute
from tropsolve.cli import emit


def ref_solve_sequence(sequence, rows, classifications, nvars, systems=None, *, stats):
    """(omega, assignment, residue) with one snapshot of the forest per round."""
    if systems is None:
        systems = {}
    eqs, ineqs = [], []
    for h, pair in enumerate(sequence):
        part = systems.get((h, pair))
        if part is None:
            part = systems[h, pair] = build_systems((pair,), (rows[h],), (classifications[h],))
        eqs += part[0]
        ineqs += part[1]
    uf = ParentPointerUnionFind(nvars)
    dead = frozenset()
    rounds = 0
    while True:
        rounds += 1
        for row in eqs:
            uf.add_equation(row)
        pa = uf.snapshot(nvars)
        kept, flagged = substitute(ineqs, pa)
        kept, dead = remove_and_enlarge(kept, dead | pa.inconsistent_roots | flagged)
        eqs, ineqs, forced = sub_specialize(kept)
        if forced:
            dead |= forced
        elif not eqs:
            stats["multi_round"] += rounds > 1
            rep = pa.representative
            return {v for v in range(nvars) if rep[v] in dead}, pa, ineqs


def solved_for_cell_key(sequence, rows, classifications, nvars, systems=None, *, stats):
    """ref_solve_sequence's result in the form cells._cell_key reads.

    The assignment stands in for the union-find, and omega for the dead
    representatives: a representative is in omega exactly when it is dead.
    """
    omega, pa, residue = ref_solve_sequence(
        sequence, rows, classifications, nvars, systems, stats=stats
    )
    return pa, omega, residue, dimension_bound(sequence, nvars)


def ref_build_cell(key, num_vars, scale, *, stats):
    """The SolutionCell of a kept key, with the gcd taken whatever the scale."""
    sequence, neg, assigned, rows, _ = key
    g = math.gcd(scale, *(o for _, _, o in assigned), *(c for _, _, c in rows))
    if g > 1:
        assigned = tuple([(v, p, o // g) for v, p, o in assigned])
        rows = tuple([(p, m, c // g) for p, m, c in rows])
    if sequence:
        stats["cells"] += 1
        stats["scaled_cells"] += scale > 1
    return cells.SolutionCell(
        win_sequence=sequence,
        neg_inf=frozenset(neg),
        scale=scale // g,
        assigned=assigned,
        rows=rows,
        dimension_bound=dimension_bound(sequence, num_vars),
        num_vars=num_vars,
    )


def planted_ints(rng, m, n, p_inf, plant):
    """Int rows of A and B with -inf at density p_inf; if plant, a drawn x solves them."""

    def entry():
        return NEG_INF if rng.random() < p_inf else rng.randint(-5, 5)

    a = [[entry() for _ in range(n)] for _ in range(m)]
    b = [[entry() for _ in range(n)] for _ in range(m)]
    if plant:
        x = [rng.randint(-4, 4) for _ in range(n)]
        for i in range(m):
            sides = [a[i], b[i]]
            rng.shuffle(sides)
            low, high = sides
            k = rng.randrange(n)
            tops = [v + x[j] for j, v in enumerate(high) if v is not NEG_INF]
            if not tops:
                high[k] = -x[k]
                tops = [0]
            low_tops = [v + x[j] for j, v in enumerate(low) if v is not NEG_INF]
            if not low_tops or max(low_tops) < max(tops):
                low[k] = max(tops) - x[k]
            else:
                high[k] = max(low_tops) - x[k]
    return a, b


def draws():
    rng = random.Random("reduced-form")
    for _ in range(60):
        yield planted_ints(rng, 3, 8, 0.0, True)
    for k in range(60):
        yield planted_ints(rng, 7, 7, 0.3, k % 2 == 0)
    for _ in range(30):
        yield planted_rows(rng, rng.randint(2, 4), rng.randint(3, 6))


def test_solve_equals_snapshot_per_round(monkeypatch):
    pairs = [(Matrix(a), Matrix(b)) for a, b in draws()]
    new = [emit(cells.solve(a, b), "json") for a, b in pairs]
    stats = Counter()
    with monkeypatch.context() as patch:
        patch.setattr(cells, "_solve_sequence", partial(solved_for_cell_key, stats=stats))
        patch.setattr(cells, "_build_cell", partial(ref_build_cell, stats=stats))
        old = [emit(cells.solve(a, b), "json") for a, b in pairs]
    for got, want, pair in zip(new, old, pairs):
        assert got == want, pair
    assert stats["cells"] >= 3000, stats
    assert stats["scaled_cells"] >= 100, stats
    assert stats["multi_round"] >= 1000, stats
