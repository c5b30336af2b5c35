"""From win sequence to cell key in one pass, against the snapshot path.

cells._solve_sequence returns the union-find itself, the frozenset of its
dead representatives, the residue and the dimension bound, counted as the
components right after the sequence's own equations; cells._cell_key reads
the -inf columns and the assignments off the union-find in one ascending
pass, and cells._build_cell takes the bound from the key.  The ref_*
functions below are the earlier path: a PotentialAssignment frozen per
sequence, the -inf set built as a set, a union and a sort, and a second
union-find over the sequence's pairs for every kept cell (the reference
dimension_bound in conftest, the earlier cells.dimension_bound).
With them swapped into cells, solve must give the same --format json, byte
for byte, and the same counts on seeded draws.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from functools import partial

from conftest import col_mask, dimension_bound, planted_rows
from test_reduced_form_reference import planted_ints
from tropsolve import Matrix, cells, solve_equations
from tropsolve.bivariate import (
    OffsetUnionFind,
    PotentialAssignment,
    build_systems,
    remove_and_enlarge,
    sub_specialize,
    substitute,
)
from tropsolve.cli import emit
from tropsolve.preprocess import columns
from tropsolve.winseq import RowClassification


def ref_solve_sequence(sequence, rows, classifications, nvars, systems=None, *, stats):
    """(omega, assignment, residue), the assignment frozen once, at the end."""
    if systems is None:
        systems = {}
    eqs, ineqs = [], []
    for h, pair in enumerate(sequence):
        part = systems.get((h, pair))
        if part is None:
            part = systems[h, pair] = build_systems((pair,), (rows[h],), (classifications[h],))
        eqs += part[0]
        ineqs += part[1]
    uf = OffsetUnionFind(nvars)
    dead = frozenset()
    while True:
        for row in eqs:
            uf.add_equation(row)
        kept, flagged = substitute(ineqs, uf)
        kept, dead = remove_and_enlarge(kept, dead | uf.inconsistent_roots | flagged)
        core = {p for p, _, _ in kept} & {m for _, m, _ in kept}
        stats[f"core_{min(len(core), 4)}"] += 1
        eqs, ineqs, forced = sub_specialize(kept)
        stats["forcing_rounds"] += bool(forced)
        stats["zero_width_rounds"] += bool(eqs)
        if forced:
            dead |= forced
        elif not eqs:
            rep = uf.representative
            return {v for v in range(nvars) if rep[v] in dead}, uf.snapshot(), ineqs


def ref_cell_key(sequence, omega, pa, residue, red, *, stats):
    """(win sequence, sorted -inf set, sorted assignments, residue), or None."""
    neg = set(columns(red.forced)).union(omega)
    rep, off = pa.representative, pa.offset
    assigned = tuple([(v, rep[v], off[v]) for v in range(len(rep)) if v not in neg])
    if not assigned:
        stats["collapsed"] += 1
        return None
    return sequence, tuple(sorted(neg)), assigned, tuple(residue)


def ref_unconstrained_key(free, num_vars):
    alive = columns(free)
    neg = tuple(sorted(set(range(num_vars)) - set(alive)))
    return ((), neg, tuple((v, v, 0) for v in alive), ())


def ref_build_cell(key, num_vars, scale, *, stats):
    """The SolutionCell of a 4-tuple key, its bound from a second union-find."""
    sequence, neg, assigned, rows = key
    g = 1
    if scale > 1:
        g = math.gcd(scale, *(o for _, _, o in assigned), *(c for _, _, c in rows))
        stats["scaled_cells"] += 1
    if g > 1:
        assigned = tuple([(v, p, o // g) for v, p, o in assigned])
        rows = tuple([(p, m, c // g) for p, m, c in rows])
    return cells.SolutionCell(
        win_sequence=sequence,
        neg_inf=frozenset(neg),
        scale=scale // g,
        assigned=assigned,
        rows=rows,
        dimension_bound=dimension_bound(sequence, num_vars),
        num_vars=num_vars,
    )


def draws():
    rng = random.Random("one-pass-key")
    for _ in range(50):
        yield planted_ints(rng, 3, 8, 0.0, True)
    for k in range(80):
        yield planted_ints(rng, rng.randint(3, 6), rng.randint(4, 7), 0.3, k % 2 == 0)
    for _ in range(30):
        yield planted_rows(rng, rng.randint(2, 4), rng.randint(3, 6))


def _counts(result):
    stats = result.stats
    return result.win_sequence_count, stats.enum_nodes, stats.scenarios, stats.collapsed


def test_solve_equals_the_snapshot_path(monkeypatch):
    pairs = [(Matrix(a), Matrix(b)) for a, b in draws()]
    new = [cells.solve(a, b, collect_stats=True) for a, b in pairs]
    stats = Counter()
    with monkeypatch.context() as patch:
        patch.setattr(cells, "_solve_sequence", partial(ref_solve_sequence, stats=stats))
        patch.setattr(cells, "_cell_key", partial(ref_cell_key, stats=stats))
        patch.setattr(cells, "_unconstrained_key", ref_unconstrained_key)
        patch.setattr(cells, "_build_cell", partial(ref_build_cell, stats=stats))
        old = [cells.solve(a, b, collect_stats=True) for a, b in pairs]
    for got, want, pair in zip(new, old, pairs):
        assert emit(got, "json") == emit(want, "json"), pair
        assert _counts(got) == _counts(want), pair
    for name, floor in (
        ("forcing_rounds", 300),
        ("zero_width_rounds", 500),
        ("core_2", 1500),
        ("core_3", 400),
        ("scaled_cells", 100),
        ("collapsed", 800),
    ):
        assert stats[name] >= floor, stats


def _pair_systems(rng, sequence, n):
    """Rows and classifications for a sequence of arbitrary pairs.

    Every entry is finite.  Half the systems draw their entries at random,
    so pairs that close a cycle of columns are often inconsistent; the
    other half hold the hidden potential exactly at the pair's columns and
    at or just below it elsewhere, so the hidden potential solves them, many
    rows are tight there and opposite rows of zero width merge classes in
    later rounds.  The dead columns are drawn outside each pair; the other
    columns go into ties, since build_systems reads only the union of a
    row's three classes.
    """
    pot = [rng.randint(-3, 3) for _ in range(n)] if rng.random() < 0.5 else None
    rows, classes = [], []
    for pair in sequence:
        if pot is None:
            rows.append([rng.randint(-3, 3) for _ in range(n)])
        else:
            rows.append([-x - (j not in pair and rng.random() < 0.25) for j, x in enumerate(pot)])
        dead = col_mask(j for j in range(n) if j not in pair and rng.random() < 0.3)
        classes.append(RowClassification(0, 0, ((1 << n) - 1) & ~dead))
    return rows, classes


def test_bound_is_the_component_count_after_the_own_equations():
    rng = random.Random(2323)
    seen = Counter()
    for _ in range(3000):
        n = rng.randint(1, 8)
        sequence = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.3:
                e = rng.randrange(n)
                sequence.append((e, e))  # a tie pair: no equation
            else:
                sequence.append((rng.randrange(n), rng.randrange(n)))
        sequence = tuple(sequence)
        rows, classes = _pair_systems(rng, sequence, n)
        uf, dead, residue, bound = cells._solve_sequence(sequence, rows, classes, n, {})
        assert bound == dimension_bound(sequence, n)
        eqs, _ = build_systems(sequence, rows, classes)
        own = solve_equations(eqs, n)
        assert bound == len(set(own.representative))
        seen["ties"] += any(p == q for p, q in sequence)
        seen["inconsistent"] += bool(own.inconsistent_roots)
        # a pair inside one class: more pairs with p != q than merges
        seen["cycles"] += sum(p != q for p, q in sequence) > n - bound
        seen["later_merges"] += len(set(uf.representative)) < bound
    floors = {"ties": 1000, "cycles": 300, "later_merges": 200, "inconsistent": 150}
    assert all(seen[name] >= floor for name, floor in floors.items()), seen


def test_solve_builds_no_potential_assignment(monkeypatch):
    built = [0]
    init = PotentialAssignment.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PotentialAssignment, "__init__", counted)
    rng = random.Random(77)
    kept = 0
    for a, b in (planted_ints(rng, rng.randint(2, 5), rng.randint(3, 8), 0.3, True)
                 for _ in range(40)):
        kept += len(cells.solve(Matrix(a), Matrix(b)).cells)
    assert built[0] == 0 and kept >= 100
    solve_equations([], 2)
    assert built[0] == 1
