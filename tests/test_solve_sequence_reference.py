"""The cell stage's fixed point against the component-closure loop it replaced.

ref_solve_sequence below is the earlier loop of cells._solve_sequence: it
tracks -inf over single variables, propagates along the inequality rows
before substituting them, and closes the forced set over equation
components by hand at four places (inconsistent roots, after each
propagation, flagged roots, forced variables).  The components are read off
the representatives, since PotentialAssignment no longer lists them.  It is
kept here as the definition the loop over representatives must match:
equal omega, representatives, offsets and residue on seeded systems that
plant every case the closure used to handle.
"""

from __future__ import annotations

import random
from collections import Counter

from conftest import pair_masks
from tropsolve import Matrix, NEG_INF
from tropsolve.bivariate import (
    OffsetUnionFind,
    build_systems,
    eq,
    leq,
    remove_and_enlarge,
    sub_specialize,
    substitute,
)
from tropsolve.cells import _solve_sequence
from tropsolve.preprocess import Verdict, reduce_instance
from tropsolve.winseq import classify_row, enumerate_win_sequences_counted, winning_pairs


def ref_solve_sequence(eqs, ineqs, nvars, features=None):
    """(omega, assignment, residue) by the closure over components.

    features, if given, counts what the run met: an inconsistent
    component, a flagged component, a negative cycle, equations from
    zero-width pairs, and equations in more than one round.
    """
    features = Counter() if features is None else features
    uf = OffsetUnionFind(nvars)
    omega: set[int] = set()
    merge_rounds = 0
    while True:
        for row in eqs:
            uf.add_equation(row)
        eqs = []
        pa = uf.snapshot(nvars)
        components: dict[int, list[int]] = {}
        for v, r in enumerate(pa.representative):
            components.setdefault(r, []).append(v)

        def members(v):
            return components[pa.representative[v]]

        for root in pa.inconsistent_roots:
            if root not in omega:
                features["inconsistent"] += 1
            omega.update(components[root])
        # propagate -inf, keeping equation components all-in or all-out
        while True:
            ineqs, omega_f = remove_and_enlarge(ineqs, omega)
            omega = set(omega_f)
            extra = {u for v in omega for u in members(v)} - omega
            if not extra:
                break
            omega |= extra
        live_rows, flagged = substitute(ineqs, pa)
        if flagged:
            features["flagged"] += 1
            for root in flagged:
                omega.update(components[root])
            ineqs = live_rows
            continue
        new_eqs, residue, forced = sub_specialize(live_rows)
        if forced:
            features["negative_cycle"] += 1
            for v in forced:
                omega.update(members(v))
            eqs = new_eqs
            ineqs = residue
            continue
        if new_eqs:
            features["zero_width"] += 1
            merge_rounds += 1
            features["merged_over_rounds"] += merge_rounds == 2
            eqs = new_eqs
            ineqs = residue
            continue
        return omega, pa, residue


def new_solve(eqs, ineqs, nvars):
    """_solve_sequence on a given system, handed in as the cached part of a one-row sequence."""
    return _solve_sequence(((0, 0),), None, (), nvars, {(0, (0, 0)): (eqs, ineqs)})


def random_system(rng):
    """(eqs, ineqs, nvars) around a hidden potential, with planted features.

    Rows are tight or slack at the potential.  Planted: an equation cycle
    with a nonzero residual (inconsistent), an inequality inside an equation
    component that the component violates (flagged), an inequality cycle of
    negative weight, a zero-width opposite pair, and a chain whose
    zero-width pairs appear one round after another, each only once the
    previous merge has put its two rows over one representative.
    """
    n = rng.randint(3, 9)
    pot = [rng.randint(-4, 4) for _ in range(n)]

    def tight(p, m):  # x_p - x_m + c = 0 at the potential
        return pot[m] - pot[p]

    eqs, ineqs = [], []
    for _ in range(rng.randint(0, n // 2)):
        p, m = rng.sample(range(n), 2)
        eqs.append(eq(p, m, tight(p, m)))
    for _ in range(rng.randint(0, n)):
        p, m = rng.sample(range(n), 2)
        ineqs.append(leq(p, m, tight(p, m) - rng.randint(0, 3)))
    if rng.random() < 0.25:
        a, b, c = rng.sample(range(n), 3)
        eqs += [eq(a, b, tight(a, b)), eq(b, c, tight(b, c)), eq(c, a, tight(c, a) + 1)]
    if rng.random() < 0.3:
        p, m = rng.sample(range(n), 2)
        eqs.append(eq(p, m, tight(p, m)))
        ineqs.append(leq(p, m, tight(p, m) + 1))
    if rng.random() < 0.3:
        cycle = rng.sample(range(n), rng.randint(2, min(n, 4)))
        # one row tightened by 1: the cycle's weight, minus its constants, is -1
        pairs = list(zip(cycle[1:] + cycle[:1], cycle))
        ineqs += [leq(p, m, tight(p, m) + (k == 0)) for k, (p, m) in enumerate(pairs)]
    if rng.random() < 0.4:
        p, m = rng.sample(range(n), 2)
        ineqs += [leq(p, m, tight(p, m)), leq(m, p, tight(m, p))]
    if rng.random() < 0.4:
        chain = rng.sample(range(n), rng.randint(3, n))
        v0, v1 = chain[:2]
        ineqs += [leq(v0, v1, tight(v0, v1)), leq(v1, v0, tight(v1, v0))]
        for i in range(2, len(chain)):
            a, b, c = chain[i - 2], chain[i - 1], chain[i]
            ineqs += [leq(c, a, tight(c, a)), leq(b, c, tight(b, c))]
    ineqs = [row for row in ineqs if row[0] != row[1]]
    rng.shuffle(eqs)
    rng.shuffle(ineqs)
    return eqs, ineqs, n


SYSTEMS = [random_system(random.Random(f"solve-sequence:{k}")) for k in range(1500)]


def test_loop_over_representatives_equals_component_closure():
    features = Counter()
    for eqs, ineqs, n in SYSTEMS:
        omega, pa, residue = new_solve(list(eqs), list(ineqs), n)
        ref_omega, ref_pa, ref_residue = ref_solve_sequence(list(eqs), list(ineqs), n, features)
        assert omega == ref_omega, (eqs, ineqs)
        assert pa.representative == ref_pa.representative, (eqs, ineqs)
        assert pa.offset == ref_pa.offset, (eqs, ineqs)
        assert residue == ref_residue, (eqs, ineqs)
    for feature in ("inconsistent", "flagged", "negative_cycle", "zero_width"):
        assert features[feature] >= 150, features
    assert features["merged_over_rounds"] >= 100, features


def test_loop_equals_component_closure_on_instances():
    rng = random.Random(1616)
    values = [NEG_INF, 0, 1, 2, 3, -2]
    sequences = 0
    for _ in range(120):
        m, n = rng.randint(1, 4), rng.randint(2, 6)
        a, b = (
            Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
            for _ in range(2)
        )
        red = reduce_instance(pair_masks(a, b))
        if red.verdict is not Verdict.REDUCED:
            continue
        classes = [classify_row(red.a_dom, red.b_dom, i) for i in range(len(red.row_origin))]
        found, _ = enumerate_win_sequences_counted(
            red.scaled_max, [winning_pairs(c) for c in classes]
        )
        n_red = len(red.col_origin)
        for sequence in found:
            eqs, ineqs = build_systems(sequence, red.scaled_max, classes)
            omega, pa, residue = _solve_sequence(sequence, red, classes, n_red)
            ref_omega, ref_pa, ref_residue = ref_solve_sequence(eqs, ineqs, n_red)
            assert (omega, pa.representative, pa.offset, residue) == (
                ref_omega, ref_pa.representative, ref_pa.offset, ref_residue
            )
            sequences += 1
    assert sequences >= 200


def test_rounds_are_bounded(monkeypatch):
    # each round that does not return forces a live representative or merges
    # two live components, so there are at most nvars + 1 snapshots
    calls = [0]
    original = OffsetUnionFind.snapshot

    def counted(self, n):
        calls[0] += 1
        return original(self, n)

    monkeypatch.setattr(OffsetUnionFind, "snapshot", counted)
    most = 0
    for eqs, ineqs, n in SYSTEMS:
        calls[0] = 0
        new_solve(list(eqs), list(ineqs), n)
        assert calls[0] <= n + 1 <= 2 * n, (eqs, ineqs)
        most = max(most, calls[0])
    assert most >= 4
