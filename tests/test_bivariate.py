import random
from fractions import Fraction

import pytest

from conftest import bold_rows, scaled_rows, seq0
from tropsolve import solve_equations, sub_specialize, substitute
from tropsolve.bivariate import (
    Constraint,
    OffsetUnionFind,
    PotentialAssignment,
    build_systems,
    eq,
    is_sub_special,
    leq,
    remove_and_enlarge,
)
from tropsolve.core import TropicalError
from tropsolve.preprocess import maximum_matrix
from tropsolve.winseq import classify_row

NI = "-inf"


# --- the displayed coefficient matrices of the worked example (1-based) ---

C1_ROWS = [eq(0, 3, -5), eq(0, 2, 1)]  # x1-x4-5=0, x1-x3+1=0

D1_ROWS = [
    leq(1, 0, 4),    # (-1, 1, 0, 0 |  4)
    leq(2, 0, -2),   # (-1, 0, 1, 0 | -2)
    leq(1, 0, 1),    # (-1, 1, 0, 0 |  1)
    leq(3, 0, -5),   # (-1, 0, 0, 1 | -5)
    leq(1, 2, -1),   # ( 0, 1,-1, 0 | -1)
    leq(3, 2, 1),    # ( 0, 0,-1, 1 |  1)
]

D2_ROWS = [
    leq(1, 0, 4),
    leq(2, 0, -2),
    leq(3, 0, -5),
    leq(1, 2, -1),
    leq(3, 2, 1),
]


def _systems_for(a, b, sequence_1based):
    a_dom, b_dom = bold_rows(a, b)
    mx = maximum_matrix(a, b)
    classes = [classify_row(a_dom, b_dom, i) for i in range(a.rows)]
    return build_systems(seq0(sequence_1based), scaled_rows(mx), classes)


def test_build_systems_first_sequence(running_example):
    a, b = running_example
    eqs, ineqs = _systems_for(a, b, [(1, 4), (1, 3), (3, 3)])
    assert set(eqs) == set(C1_ROWS)
    # all seven row-by-row normal forms; D1_ROWS differs in two entries (its
    # origin drops the x1-x3 row and carries -2 where the formula gives -4)
    expected = D1_ROWS + [leq(2, 0, -4), leq(0, 2, 0)]
    expected.remove(leq(2, 0, -2))
    assert set(ineqs) == set(expected)
    assert len(ineqs) == 7


def test_build_systems_empty_case(empty_case_example):
    a, b = empty_case_example
    eqs, _ = _systems_for(a, b, [(1, 4), (1, 3), (3, 4)])
    assert set(eqs) == {eq(0, 3, -5), eq(0, 2, 1), eq(2, 3, 4)}


def test_build_systems_tie_pair_no_equation(running_example):
    a, b = running_example
    eqs, ineqs = _systems_for(a, b, [(1, 4), (1, 3), (3, 3)])
    anchors = {minus for _, minus, _ in ineqs}
    assert 2 in anchors  # the tie row anchors its inequalities at column 3
    assert all(plus < minus for plus, minus, _ in eqs) and len(eqs) == 2


def test_remove_and_enlarge_empty_case():
    # the inconsistent component {1,3,4} seeds the forced set; the first-row
    # inequality x2 - x1 + 4 <= 0 then forces x2
    constraints = [leq(1, 0, 4)]
    remaining, omega = remove_and_enlarge(constraints, {0, 2, 3})
    assert remaining == []
    assert omega == {0, 1, 2, 3}


def test_remove_and_enlarge_plus_side_dropped():
    remaining, omega = remove_and_enlarge([leq(7, 3, 1)], {7})
    assert remaining == [] and omega == {7}


def test_remove_and_enlarge_chain():
    remaining, omega = remove_and_enlarge([leq(1, 0, 0), leq(2, 1, 0)], {0})
    assert remaining == [] and omega == {0, 1, 2}


def test_remove_and_enlarge_equation_propagates():
    # as in the cell stage: rows over representatives, so forcing x3 forces
    # its whole equation class {x3, x6}, and x5 with it through x5 - x6 <= 0
    pa = solve_equations([eq(5, 2, 3)], 6)  # x6 = x3 - 3
    rows, flagged = substitute([leq(4, 5, 0), leq(5, 1, 0)], pa)
    assert rows == [(4, 2, 3), (2, 1, -3)] and not flagged
    remaining, omega = remove_and_enlarge(rows, {pa.representative[5]})
    assert remaining == [] and omega == {2, 4}
    assert {v for v in range(6) if pa.representative[v] in omega} == {2, 4, 5}


def test_remove_and_enlarge_fixed_point_bound():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 6)
        cons = [
            leq(*rng.sample(range(n), 2), rng.randint(-3, 3)) for _ in range(rng.randint(0, 8))
        ]
        omega0 = set(rng.sample(range(n), rng.randint(0, n)))
        remaining, omega = remove_and_enlarge(cons, omega0)
        assert omega0 <= omega
        for plus, minus, _ in remaining:
            assert plus not in omega and minus not in omega


def test_solve_equations_gaussian_family():
    pa = solve_equations(C1_ROWS, 4)
    # same affine family as the displayed solution x3 = x4 + 6, x1 = x4 + 5
    assert pa.representative == (0, 1, 0, 0)
    assert pa.offset[2] - pa.offset[3] == 6
    assert pa.offset[0] - pa.offset[3] == 5
    assert not pa.inconsistent_roots


def test_solve_equations_inconsistent_cycle():
    pa = solve_equations([eq(0, 3, -5), eq(0, 2, 1), eq(2, 3, 4)], 4)
    assert pa.inconsistent_roots == {0}
    assert [v for v in range(4) if pa.representative[v] == 0] == [0, 2, 3]


def test_solve_equations_empty():
    pa = solve_equations([], 3)
    assert pa.representative == (0, 1, 2)
    assert pa.offset == (0, 0, 0)


def test_solve_equations_inconsistency_witness():
    """An inconsistent component always contains a signed cycle with nonzero sum."""
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 5)
        eqs = [
            eq(*rng.sample(range(n), 2), rng.randint(-2, 2))
            for _ in range(rng.randint(1, 6))
        ]
        pa = solve_equations(eqs, n)
        for root in pa.inconsistent_roots:
            members = {v for v in range(n) if pa.representative[v] == root}
            # independent replay: BFS potentials must hit a contradiction
            potential = {min(members): Fraction(0)}
            frontier = [min(members)]
            adjacency = {}
            for plus, minus, constant in eqs:
                adjacency.setdefault(plus, []).append((minus, -constant))
                adjacency.setdefault(minus, []).append((plus, constant))
            contradiction = False
            while frontier:
                v = frontier.pop()
                for w, delta in adjacency.get(v, []):
                    value = potential[v] + delta
                    if w in potential:
                        if potential[w] != value:
                            contradiction = True
                    else:
                        potential[w] = value
                        frontier.append(w)
            assert contradiction


def test_substitute_yields_displayed_normal_form():
    # anchor the component at x4 exactly as the displayed solution does
    pa = PotentialAssignment(
        representative=(3, 1, 3, 3),
        offset=(Fraction(5), Fraction(0), Fraction(6), Fraction(0)),
        inconsistent_roots=frozenset(),
    )
    rows, flagged = substitute(D2_ROWS, pa)
    assert not flagged
    eqs, residue, forced = sub_specialize(rows)
    assert not eqs and not forced
    assert residue == [leq(1, 3, -1)]  # x2 - x4 - 1 <= 0


def test_substitute_tautology_dropped():
    pa = solve_equations([eq(0, 2, -1)], 3)  # x1 = x3 - 1
    rows, flagged = substitute([leq(0, 2, -1)], pa)
    assert rows == [] and not flagged


def test_substitute_flags_infeasible():
    pa = solve_equations([eq(0, 2, -1)], 3)
    rows, flagged = substitute([leq(0, 2, 9)], pa)
    assert rows == [] and flagged == {0}


def test_substitute_maps_inconsistent_component():
    # {x1, x3} is inconsistent: substitute maps its rows without raising,
    # and seeding the propagation with its root removes every one of them
    pa = solve_equations([eq(0, 2, 1), eq(2, 0, 1)], 4)
    assert pa.inconsistent_roots == {0}
    rows, flagged = substitute([leq(1, 2, 0), leq(2, 3, 0), leq(3, 1, 0)], pa)
    assert [(p, m) for p, m, _ in rows] == [(1, 0), (0, 3), (3, 1)] and not flagged
    remaining, omega = remove_and_enlarge(rows, pa.inconsistent_roots)
    assert remaining == [] and omega == {0, 1, 3}


def test_sub_specialize_displayed_matrices():
    eqs, residue, forced = sub_specialize(D1_ROWS)
    assert not eqs and not forced
    assert residue == D2_ROWS


def test_sub_specialize_opposite_rows_zero_width():
    eqs, residue, forced = sub_specialize([leq(0, 1, 3), leq(1, 0, -3)])
    assert eqs == [eq(0, 1, 3)]
    assert residue == [] and not forced


def test_sub_specialize_negative_two_cycle():
    eqs, residue, forced = sub_specialize([leq(0, 1, 1), leq(1, 0, 1)])
    assert forced == {0, 1}
    assert not eqs


def test_sub_specialize_negative_long_cycle():
    rows = [leq(1, 0, 1), leq(2, 1, 1), leq(0, 2, 1)]
    _, _, forced = sub_specialize(rows)
    assert forced == {0, 1, 2}


@pytest.mark.parametrize("rows", [[leq(0, 0, 0)], [leq(0, 1, 2), leq(1, 1, -2)]])
def test_sub_specialize_rejects_equal_endpoints(rows):
    with pytest.raises(TropicalError, match="endpoints must differ"):
        sub_specialize(rows)


def test_sub_specialize_row_count_contract():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(2, 5)
        rows = [
            leq(*rng.sample(range(n), 2), Fraction(rng.randint(-4, 4)))
            for _ in range(rng.randint(1, 10))
        ]
        eqs, residue, forced = sub_specialize(rows)
        assert 2 * len(eqs) + len(residue) <= len(rows)
        if not forced:
            assert is_sub_special(residue)


def test_sub_specialize_preserves_real_solutions():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(2, 4)
        rows = [
            leq(*rng.sample(range(n), 2), Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(1, 7))
        ]
        eqs, residue, forced = sub_specialize(rows)
        for _ in range(20):
            point = [Fraction(rng.randint(-6, 6)) for _ in range(n)]
            sat_t = all(point[p] - point[m] + c <= 0 for p, m, c in rows)
            sat_en = all(
                point[p] - point[m] + c == 0 for p, m, c in eqs
            ) and all(
                point[p] - point[m] + c <= 0 for p, m, c in residue
            ) and not forced
            assert sat_t == sat_en


def test_sub_specialize_keeps_tightest_bound():
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(2, 4)
        rows = [
            leq(*rng.sample(range(n), 2), Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(1, 7))
        ]
        eqs, residue, forced = sub_specialize(rows)
        out = {(p, m): c for p, m, c in residue}
        for p, m, c in rows:
            if (p, m) in out:
                assert out[(p, m)] >= c


# --- reference copies: the full closure and the two-pass normalization ---


def _reference_canonical_rows(bounds):
    ordered = sorted(
        bounds.items(),
        key=lambda item: (
            min(item[0]),
            max(item[0]),
            0 if item[0][0] < item[0][1] else 1,
        ),
    )
    return [(p, m, c) for (p, m), c in ordered]


def _reference_sub_specialize(ineqs):
    """sub_specialize with a Floyd-Warshall closure over every variable."""
    best = {}
    for plus, minus, constant in ineqs:
        key = (plus, minus)
        if key not in best or constant > best[key]:
            best[key] = constant
    variables = sorted({v for key in best for v in key})
    index = {v: i for i, v in enumerate(variables)}
    nv = len(variables)
    dist = [[None] * nv for _ in range(nv)]
    for i in range(nv):
        dist[i][i] = 0
    for (p, m), c in best.items():
        u, v = index[m], index[p]
        if dist[u][v] is None or -c < dist[u][v]:
            dist[u][v] = -c
    for k in range(nv):
        for row_i in dist:
            dik = row_i[k]
            if dik is None:
                continue
            for j, dkj in enumerate(dist[k]):
                if dkj is not None and (row_i[j] is None or dik + dkj < row_i[j]):
                    row_i[j] = dik + dkj
    forced = frozenset(variables[i] for i in range(nv) if dist[i][i] < 0)
    if forced:
        return [], _reference_canonical_rows(best), forced
    eqs = []
    for (p, m) in sorted(best):
        if p > m or (m, p) not in best:
            continue
        if -best[(p, m)] - best[(m, p)] == 0:
            eqs.append((p, m, best[(p, m)]))
            del best[(p, m)]
            del best[(m, p)]
    return eqs, _reference_canonical_rows(best), frozenset()


def _reference_snapshot(uf, n):
    """OffsetUnionFind.snapshot by grouping, sorting and re-reading every location."""
    groups, locs = {}, {}
    for v in range(n):
        locs[v] = uf.location(v)
        groups.setdefault(locs[v][0], []).append(v)
    rep, offs, bad_roots = [0] * n, [0] * n, set()
    for root, members in groups.items():
        members.sort()
        lead = members[0]
        for v in members:
            rep[v] = lead
            offs[v] = locs[v][1] - locs[lead][1]
        if uf.bad[root]:
            bad_roots.add(lead)
    return PotentialAssignment(tuple(rep), tuple(offs), frozenset(bad_roots))


def _constant(rng, fractional):
    if fractional:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    return rng.randint(-4, 4)


def _random_system(rng):
    """Inequality rows over a few sparse indices, with planted features.

    Features: a cycle (negative or not), an opposite pair of zero width, a
    pure source (only a minus side) and a pure sink (only a plus side).
    """
    fractional = rng.random() < 0.4
    names = rng.sample(range(12), rng.randint(2, 7))
    rows = []
    for _ in range(rng.randint(0, 12)):
        p, m = rng.sample(names, 2)
        rows.append(leq(p, m, _constant(rng, fractional)))
    if rng.random() < 0.3 and len(names) >= 3:
        cycle = rng.sample(names, rng.randint(2, len(names)))
        for p, m in zip(cycle[1:] + cycle[:1], cycle):
            rows.append(leq(p, m, _constant(rng, fractional)))
    if rng.random() < 0.4:
        p, m = rng.sample(names, 2)
        c = _constant(rng, fractional)
        rows += [leq(p, m, c), leq(m, p, -c)]
    if rng.random() < 0.4:
        source, sink = 20, 21
        rows.append(leq(rng.choice(names), source, _constant(rng, fractional)))
        rows.append(leq(sink, rng.choice(names), _constant(rng, fractional)))
    rng.shuffle(rows)
    return rows


def test_sub_specialize_equals_full_closure():
    rng = random.Random(808)
    branches = {"forced": 0, "equations": 0, "plain": 0}
    for _ in range(2500):
        rows = _random_system(rng)
        got = sub_specialize(rows)
        assert got == _reference_sub_specialize(rows), rows
        eqs, residue, forced = got
        if forced:
            branches["forced"] += 1
        elif eqs:
            branches["equations"] += 1
        else:
            branches["plain"] += 1
    assert min(branches.values()) >= 200, branches


def test_snapshot_equals_two_pass_normalization():
    rng = random.Random(809)
    seen_bad = seen_shared = 0
    for _ in range(2000):
        n = rng.randint(1, 8)
        fractional = rng.random() < 0.4
        potential = [_constant(rng, fractional) for _ in range(n)]
        uf = OffsetUnionFind(n)
        for _ in range(rng.randint(0, 2 * n)):
            p, m = rng.randrange(n), rng.randrange(n)
            if p == m:
                continue
            # mostly consistent with a hidden potential, sometimes not
            c = potential[m] - potential[p]
            if rng.random() < 0.15:
                c += rng.choice((-1, 1, Fraction(1, 2)))
            uf.add_equation(eq(p, m, c))
        got = uf.snapshot(n)
        assert got == _reference_snapshot(uf, n)
        seen_bad += bool(got.inconsistent_roots)
        seen_shared += any(r != v for v, r in enumerate(got.representative))
    assert seen_bad >= 200 and seen_shared >= 1000


def test_is_sub_special():
    assert is_sub_special(D2_ROWS)
    assert not is_sub_special(D1_ROWS)  # duplicate variable part
    four_row = [leq(0, 2, 3), leq(2, 0, -8), leq(2, 1, -4), leq(2, 3, 0)]
    assert is_sub_special(four_row)
    assert is_sub_special([])
    # opposite rows must be adjacent and strictly concatenable
    assert not is_sub_special([leq(0, 1, 3), leq(2, 1, 0), leq(1, 0, -3)])
    assert not is_sub_special([leq(0, 1, 3), leq(1, 0, -3)])  # zero width


def test_rows_are_plain_tuples():
    assert eq(3, 1, 2) == (1, 3, -2)  # canonical orientation: smaller index first
    assert eq(1, 3, Fraction(1, 2)) == (1, 3, Fraction(1, 2))
    assert leq(3, 1, 2) == (3, 1, 2)
    eqs, residue, forced = sub_specialize([leq(0, 1, 3), leq(1, 0, -3), leq(2, 0, 1)])
    assert eqs == [(0, 1, 3)] and residue == [(2, 0, 1)] and not forced
    assert all(type(r) is tuple for r in eqs + residue)


def test_constraint_validation():
    with pytest.raises(Exception):
        Constraint(1, 1, Fraction(0))
