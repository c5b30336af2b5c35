import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import col_mask, row_classes, scaled_rows, seq0, sequence_systems
from tropsolve import solve_equations, sub_specialize, substitute
from tropsolve.bivariate import (
    Constraint,
    OffsetUnionFind,
    close,
    eq,
    fill_bounds,
    leq,
    remove_and_enlarge,
)
import tropsolve.bivariate as bivariate
from tropsolve.core import NEG_INF, TropicalError
from tropsolve.preprocess import columns, maximum_matrix

NI = "-inf"


def rows_of(t):
    """The rows (plus, minus, constant) of a Bounds's entries, in entry order."""
    n, bound, entries, _, _ = t
    return [(e // n, e % n, bound[e]) for e in entries]


def sides(t):
    """A Bounds's heads and tails masks."""
    return t[3:]


def _num_vars(rows):
    return 1 + max((max(p, m) for p, m, _ in rows), default=0)


def tighten(rows):
    """sub_specialize on the Bounds of rows over as many variables as they name."""
    return sub_specialize(fill_bounds(rows, _num_vars(rows)))


def canonical(rows):
    """Rows sorted by (smaller index, larger index, plus side first)."""
    return sorted(rows, key=lambda r: (min(r[0], r[1]), max(r[0], r[1]), r[0] > r[1]))


def settled(got):
    """sub_specialize's result with an unsettled round's residue put in canonical order.

    A round that forces or extracts equations hands its residue back in
    entry order; a settled round must already be canonical, so its
    residue is left as it came.
    """
    eqs, residue, forced = got
    return eqs, canonical(residue) if eqs or forced else residue, forced


def bound_array(best, n):
    """The flat n*n bound list of a {(plus, minus): constant} map."""
    bound = [None] * (n * n)
    for (p, m), c in best.items():
        bound[p * n + m] = c
    return bound


def is_sub_special(rows):
    """Structural check for a canonical irredundant inequality list.

    The shape sub_specialize promises for its residue; it reads structure
    only, so it does not see a zero-weight cycle through three or more rows.

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
    mx = maximum_matrix(a, b)
    classes = row_classes(a, b)
    return sequence_systems(seq0(sequence_1based), scaled_rows(mx), classes)


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


@pytest.mark.parametrize(
    "constant", [0.1, True, False, "-inf", NEG_INF], ids=["0.1", "True", "False", "'-inf'", "NEG_INF"]
)
@pytest.mark.parametrize("make", [eq, leq], ids=["eq", "leq"])
def test_row_constants_are_read_by_as_scalar(make, constant):
    """A float, a bool or -inf is no row constant; before, 0.1 read as its binary Fraction."""
    with pytest.raises(TypeError if constant in (0.1, True, False) else ValueError):
        make(0, 1, constant)


def test_row_constants_are_exact_numbers():
    assert eq(1, 0, "3/1") == (0, 1, -3) and type(eq(1, 0, "3/1")[2]) is int
    assert leq(0, 1, "-1/2") == (0, 1, Fraction(-1, 2))
    assert eq(0, 1, Fraction(4, 2)) == (0, 1, 2)


def test_build_systems_does_not_read_its_int_rows(running_example, monkeypatch):
    """The cell stage's own rows are ints already: build_systems skips the reader."""
    a, b = running_example
    expected = _systems_for(a, b, [(1, 4), (1, 3), (3, 3)])

    def refuse(value):
        raise AssertionError(f"as_scalar({value!r}) on the build_systems path")

    monkeypatch.setattr(bivariate, "as_scalar", refuse)
    assert _systems_for(a, b, [(1, 4), (1, 3), (3, 3)]) == expected


def test_remove_and_enlarge_empty_case():
    # the inconsistent component {1,3,4} seeds the forced set; the first-row
    # inequality x2 - x1 + 4 <= 0 then forces x2
    constraints = [leq(1, 0, 4)]
    remaining, omega = remove_and_enlarge(fill_bounds(constraints, 4), col_mask([0, 2, 3]))
    assert rows_of(remaining) == []
    assert omega == col_mask([0, 1, 2, 3])


def test_remove_and_enlarge_plus_side_dropped():
    remaining, omega = remove_and_enlarge(fill_bounds([leq(7, 3, 1)], 8), 1 << 7)
    assert rows_of(remaining) == [] and omega == 1 << 7


def test_remove_and_enlarge_chain():
    remaining, omega = remove_and_enlarge(fill_bounds([leq(1, 0, 0), leq(2, 1, 0)], 3), 1 << 0)
    assert rows_of(remaining) == [] and omega == col_mask([0, 1, 2])


def test_remove_and_enlarge_equation_propagates():
    # as in the cell stage: rows over representatives, so forcing x3 forces
    # its whole equation class {x3, x6}, and x5 with it through x5 - x6 <= 0
    pa = solve_equations([eq(5, 2, 3)], 6)  # x6 = x3 - 3
    t, flagged = substitute([leq(4, 5, 0), leq(5, 1, 0)], pa)
    assert rows_of(t) == [(4, 2, 3), (2, 1, -3)] and not flagged
    remaining, omega = remove_and_enlarge(t, 1 << pa.representative[5])
    assert rows_of(remaining) == [] and omega == col_mask([2, 4])
    assert [v for v in range(6) if omega >> pa.representative[v] & 1] == [2, 4, 5]


def _reference_enlarge(rows, omega):
    """The least superset of omega closed under "minus dead => plus dead", as a set."""
    dead = set(omega)
    while True:
        more = {plus for plus, minus, _ in rows if minus in dead} - dead
        if not more:
            return dead
        dead |= more


def test_remove_and_enlarge_fixed_point_bound():
    # the least closed superset, and exactly the entries that touch none of
    # it, with heads and tails recomputed and the input left as it was;
    # indices up to 129, so that the masks span more than one 64-bit word
    rng = random.Random(4100)
    seen = Counter()
    for _ in range(1500):
        names = rng.sample(range(130), rng.randint(2, 9))
        rows = [leq(*rng.sample(names, 2), rng.randint(-3, 3)) for _ in range(rng.randint(0, 10))]
        start = set(rng.sample(names, rng.randint(0, len(names))))
        t = fill_bounds(rows, 130)
        before = rows_of(t), sides(t)
        remaining, omega = remove_and_enlarge(t, col_mask(start))
        dead = _reference_enlarge(rows, start)
        assert omega == col_mask(dead), (rows, start)
        kept = fill_bounds([r for r in rows if r[0] not in dead and r[1] not in dead], 130)
        assert rows_of(remaining) == rows_of(kept)
        assert sides(remaining) == sides(kept), (rows, start)
        assert (rows_of(t), sides(t)) == before
        seen["enlarged"] += len(dead) > len(start)
        seen["chains"] += len(dead) > len(start) + 1
        seen["rows kept beside dead"] += bool(start) and 0 < len(remaining[2]) < len(t[2])
        seen["nothing dead"] += not start
    assert all(seen[key] >= 150 for key in
               ("enlarged", "chains", "rows kept beside dead", "nothing dead")), seen


def test_solve_equations_gaussian_family():
    pa = solve_equations(C1_ROWS, 4)
    # same affine family as the displayed solution x3 = x4 + 6, x1 = x4 + 5
    assert pa.representative == [0, 1, 0, 0]
    assert pa.offset[2] - pa.offset[3] == 6
    assert pa.offset[0] - pa.offset[3] == 5
    assert not pa.inconsistent_roots


def test_solve_equations_inconsistent_cycle():
    pa = solve_equations([eq(0, 3, -5), eq(0, 2, 1), eq(2, 3, 4)], 4)
    assert pa.inconsistent_roots == 1 << 0
    assert [v for v in range(4) if pa.representative[v] == 0] == [0, 2, 3]


def test_solve_equations_empty():
    pa = solve_equations([], 3)
    assert pa.representative == [0, 1, 2]
    assert pa.offset == [0, 0, 0]
    assert pa.inconsistent_roots == 0


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
        for root in columns(pa.inconsistent_roots):
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


def test_components_are_counted_as_they_merge():
    # the counter that the dimension bound reads, against the components
    # counted afresh after every equation, inconsistent cycles included
    rng = random.Random(3401)
    seen = Counter()
    for _ in range(600):
        n = rng.randint(1, 7)
        uf = OffsetUnionFind(n)
        assert uf.components == n
        for _ in range(rng.randint(0, 9)):
            uf.add_equation(eq(rng.randrange(n), rng.randrange(n), rng.randint(-2, 2)))
            assert uf.components == len(set(uf.representative))
        seen["inconsistent"] += bool(uf.inconsistent_roots)
        seen["merged into one"] += uf.components == 1 < n
        seen["several left"] += uf.components > 1
    assert min(seen.values()) >= 100, seen


def test_substitute_writes_the_tightest_constant_per_pair():
    """Seeded systems with int and Fraction constants, repeated pairs and shared ends.

    The array holds exactly the largest substituted constant per ordered
    pair of representatives and None elsewhere, entries lists each pair
    once in the order of its first row, heads and tails are their sides,
    and a row whose ends share a representative is flagged when its
    constant is positive and is otherwise dropped.  On a round that
    settles, the residue is those rows sorted by (smaller index, larger
    index, plus side first).
    """
    rng = random.Random(3402)
    seen = Counter()
    for _ in range(1200):
        n = rng.randint(2, 8)
        fractional = rng.random() < 0.4
        uf = solve_equations(
            [eq(*rng.sample(range(n), 2), _constant(rng, fractional)) for _ in range(rng.randint(0, 3))], n
        )
        rows = [leq(*rng.sample(range(n), 2), _constant(rng, fractional)) for _ in range(rng.randint(0, 12))]
        for p, m, _ in rng.sample(rows, min(len(rows), rng.randint(0, 3))):
            rows.append(leq(p, m, _constant(rng, fractional)))  # a repeated pair
        if rng.random() < 0.5:  # an opposite pair of positive width
            p, m = rng.sample(range(n), 2)
            c = _constant(rng, fractional)
            rows += [leq(p, m, c), leq(m, p, -c - rng.randint(1, 3))]
        rng.shuffle(rows)
        rep, off = uf.representative, uf.offset
        best, order, flagged = {}, [], 0
        for p, m, c in rows:
            rp, rm, c = rep[p], rep[m], off[p] - off[m] + c
            if rp == rm:
                flagged |= (c > 0) << rp
            elif (rp, rm) in best:
                best[rp, rm] = max(best[rp, rm], c)
            else:
                best[rp, rm] = c
                order.append((rp, rm))
        t, got_flagged = substitute(rows, uf)
        assert got_flagged == flagged, rows
        size, bound, entries, heads, tails = t
        assert size == n and bound == bound_array(best, n), rows
        assert [(e // n, e % n) for e in entries] == order
        assert (heads, tails) == (col_mask(p for p, _ in order), col_mask(m for _, m in order))
        eqs, residue, forced = sub_specialize(t)
        if not eqs and not forced:
            expected = sorted(
                [(p, m, c) for (p, m), c in best.items()], key=lambda r: (min(r[:2]), max(r[:2]), r[0] > r[1])
            )
            assert residue == expected, rows
            seen["settled, both orientations"] += any((m, p) in best for p, m in best)
        seen["repeated pairs"] += len({(p, m) for p, m, _ in rows}) < len(rows)
        seen["shared representative"] += any(rep[p] == rep[m] for p, m, _ in rows)
        seen["flagged"] += bool(flagged)
        seen["fractional"] += fractional
    assert min(seen.values()) >= 150, seen


def test_substitute_yields_displayed_normal_form():
    # anchor the component at x4 exactly as the displayed solution does
    pa = OffsetUnionFind(4)
    pa.representative = [3, 1, 3, 3]
    pa.offset = [Fraction(5), Fraction(0), Fraction(6), Fraction(0)]
    t, flagged = substitute(D2_ROWS, pa)
    assert not flagged
    eqs, residue, forced = sub_specialize(t)
    assert not eqs and not forced
    assert residue == [leq(1, 3, -1)]  # x2 - x4 - 1 <= 0


def test_substitute_tautology_dropped():
    pa = solve_equations([eq(0, 2, -1)], 3)  # x1 = x3 - 1
    t, flagged = substitute([leq(0, 2, -1)], pa)
    assert rows_of(t) == [] and not flagged


def test_substitute_flags_infeasible():
    pa = solve_equations([eq(0, 2, -1)], 3)
    t, flagged = substitute([leq(0, 2, 9)], pa)
    assert rows_of(t) == [] and flagged == 1 << 0


def test_substitute_maps_inconsistent_component():
    # {x1, x3} is inconsistent: substitute maps its rows without raising,
    # and seeding the propagation with its root removes every one of them
    pa = solve_equations([eq(0, 2, 1), eq(2, 0, 1)], 4)
    assert pa.inconsistent_roots == 1 << 0
    t, flagged = substitute([leq(1, 2, 0), leq(2, 3, 0), leq(3, 1, 0)], pa)
    assert [(p, m) for p, m, _ in rows_of(t)] == [(1, 0), (0, 3), (3, 1)] and not flagged
    remaining, omega = remove_and_enlarge(t, pa.inconsistent_roots)
    assert rows_of(remaining) == [] and omega == col_mask([0, 1, 3])


def test_sub_specialize_displayed_matrices():
    eqs, residue, forced = tighten(D1_ROWS)
    assert not eqs and not forced
    assert residue == D2_ROWS


def test_sub_specialize_opposite_rows_zero_width():
    eqs, residue, forced = tighten([leq(0, 1, 3), leq(1, 0, -3)])
    assert eqs == [eq(0, 1, 3)]
    assert residue == [] and not forced


def test_sub_specialize_negative_two_cycle():
    eqs, residue, forced = tighten([leq(0, 1, 1), leq(1, 0, 1)])
    assert forced == col_mask([0, 1])
    assert not eqs


def test_sub_specialize_negative_long_cycle():
    rows = [leq(1, 0, 1), leq(2, 1, 1), leq(0, 2, 1)]
    _, _, forced = tighten(rows)
    assert forced == col_mask([0, 1, 2])


def test_sub_specialize_negative_three_cycle_only():
    # core {2, 5, 7} beside the non-core variables 0 and 9: the cycle
    # 5 -> 7 -> 2 -> 5 has weight -1 while every 2-cycle weighs 4 or 5, so
    # only a closure through a third core variable finds it
    w = {(5, 7): 0, (7, 2): 0, (2, 5): -1, (7, 5): 5, (2, 7): 5, (5, 2): 5}
    rows = [leq(p, m, -weight) for (m, p), weight in w.items()]  # edge m -> p
    rows += [leq(0, 2, 3), leq(9, 7, 1)]
    for (m, p), weight in w.items():
        assert weight + w[(p, m)] >= 0
    eqs, residue, forced = tighten(rows)
    assert forced == col_mask([2, 5, 7])
    assert not eqs
    assert sorted(residue) == sorted(rows)


def test_sub_specialize_zero_width_pair_beside_a_third_core_variable():
    # x1 - x4 = -2 exactly; x6 shares a cycle of positive width with each,
    # and (x1, x4, x6) = (-2, 0, 0) satisfies every row strictly but the pair
    rows = [leq(1, 4, 2), leq(4, 1, -2), leq(6, 1, -3), leq(1, 6, 1), leq(4, 6, -1), leq(6, 4, -2)]
    eqs, residue, forced = tighten(rows)
    assert not forced
    assert eqs == [eq(1, 4, 2)]
    # a round that extracts equations hands its residue back in entry order
    assert canonical(residue) == [leq(1, 6, 1), leq(6, 1, -3), leq(4, 6, -1), leq(6, 4, -2)]
    assert is_sub_special(canonical(residue))


@pytest.mark.parametrize("rows", [[leq(0, 0, 0)], [leq(0, 1, 2), leq(1, 1, -2)]])
def test_sub_specialize_rejects_equal_endpoints(rows):
    with pytest.raises(TropicalError, match="endpoints must differ"):
        tighten(rows)


def test_sub_specialize_row_count_contract():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(2, 5)
        rows = [
            leq(*rng.sample(range(n), 2), Fraction(rng.randint(-4, 4)))
            for _ in range(rng.randint(1, 10))
        ]
        t = fill_bounds(rows, n)
        eqs, residue, forced = settled(sub_specialize(t))
        assert 2 * len(eqs) + len(residue) <= len(t[2]) <= len(rows)
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
        eqs, residue, forced = sub_specialize(fill_bounds(rows, n))
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
        eqs, residue, forced = sub_specialize(fill_bounds(rows, n))
        out = {(p, m): c for p, m, c in residue}
        for p, m, c in rows:
            if (p, m) in out:
                assert out[(p, m)] >= c


def _constant(rng, fractional):
    if fractional:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    return rng.randint(-4, 4)


def _small_system(rng):
    """Inequality rows over two to five variables, most with an opposite pair.

    Few rows over few variables leave cyclic cores of every size from none
    to five; the planted opposite pair has width -1, 0 or 1, so a core of
    two is often exactly that pair, at each of its three outcomes.
    """
    fractional = rng.random() < 0.4
    names = rng.sample(range(10), rng.randint(2, 5))
    rows = []
    for _ in range(rng.randint(0, 6)):
        p, m = rng.sample(names, 2)
        rows.append(leq(p, m, _constant(rng, fractional)))
    if rng.random() < 0.6:
        p, m = rng.sample(names, 2)
        c = _constant(rng, fractional)
        rows += [leq(p, m, c), leq(m, p, -c - rng.choice((-1, 0, 0, 1)))]
    rng.shuffle(rows)
    return rows


def _core_size(rows):
    """Size class of the cyclic core: the variables with rows in and out."""
    size = len({p for p, _, _ in rows} & {m for _, m, _ in rows})
    return "<=1" if size <= 1 else "2" if size == 2 else ">=3"


def test_sub_specialize_closes_only_cores_of_three_or_more(monkeypatch):
    sizes = []
    original = bivariate.close

    def recorded(nodes, bound, n):
        sizes.append(len(nodes))
        return original(nodes, bound, n)

    monkeypatch.setattr(bivariate, "close", recorded)
    rng = random.Random(811)
    large = 0
    for _ in range(1000):
        rows = _small_system(rng)
        tighten(rows)
        large += _core_size(rows) == ">=3"
    assert min(sizes) >= 3 and len(sizes) == large >= 150


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
    eqs, residue, forced = tighten([leq(0, 1, 3), leq(1, 0, -3), leq(2, 0, 1)])
    assert eqs == [(0, 1, 3)] and residue == [(2, 0, 1)] and not forced
    assert all(type(r) is tuple for r in eqs + residue)


def test_constraint_validation():
    with pytest.raises(Exception):
        Constraint(1, 1, Fraction(0))


def _closed_walks(nodes, best):
    """Brute force over the edges minus -> plus (weight -constant) inside nodes.

    Returns (paths, cycles): paths[u, v] is the lightest simple path from u
    to v (u != v), absent when there is none, and cycles[u] the lightest
    simple cycle through u, absent when there is none.
    """
    succ = {u: [] for u in nodes}
    for (plus, minus), c in best.items():
        if plus in succ and minus in succ:
            succ[minus].append((plus, -c))
    paths, cycles = {}, {}

    def walk(start, u, weight, seen):
        for v, w in succ[u]:
            if v == start:
                cycles[start] = min(cycles.get(start, weight + w), weight + w)
            elif v not in seen:
                key = start, v
                paths[key] = min(paths.get(key, weight + w), weight + w)
                walk(start, v, weight + w, seen | {v})

    for u in nodes:
        walk(u, u, 0, {u})
    return paths, cycles


def test_close_fixed_system():
    # x1 - x0 + 2 <= 0, x2 - x1 - 5 <= 0, x0 - x2 - 1 <= 0: cycle weight 4
    dist = close([0, 1, 2], bound_array({(1, 0): 2, (2, 1): -5, (0, 2): -1}, 3), 3)
    assert dist == [[0, -2, 3], [6, 0, 5], [1, -1, 0]]
    assert close([3, 7], bound_array({(7, 3): 1}, 8), 8) == [[0, -1], [None, 0]]
    assert close([], bound_array({(1, 0): 2}, 2), 2) == []


def test_close_matches_brute_force_paths_and_cycles():
    """Shortest simple paths without a negative cycle; with one, the diagonal.

    With a negative cycle the entries are walks of no fixed length, so only
    their bounds are checked: every entry is at most the lightest simple
    path, and the diagonal is negative on every negative simple cycle and
    only in a strongly connected component that holds one.
    """
    rng = random.Random(2601)
    seen = {"no path": 0, "negative": 0, "plain": 0}
    for _ in range(1500):
        nodes = sorted(rng.sample(range(9), rng.randint(2, 6)))
        labels = nodes + [9, 10]  # rows that leave the node set
        density = rng.choice((0.2, 0.4, 0.7))
        best = {
            (p, m): rng.randint(-6, 2)
            for p in labels
            for m in labels
            if p != m and rng.random() < density
        }
        dist = close(nodes, bound_array(best, 11), 11)
        paths, cycles = _closed_walks(nodes, best)
        negative = {u for u, w in cycles.items() if w < 0}
        reach = {(u, v) for u, v in paths} | {(u, u) for u in nodes}
        for i, u in enumerate(nodes):
            for j, v in enumerate(nodes):
                assert (dist[i][j] is None) == ((u, v) not in reach), (nodes, best)
        seen["no path"] += len(nodes) ** 2 > len(reach)
        if not negative:
            seen["plain"] += 1
            for i, u in enumerate(nodes):
                for j, v in enumerate(nodes):
                    assert dist[i][j] == (0 if u == v else paths.get((u, v))), (nodes, best)
            continue
        seen["negative"] += 1
        # u and a node of a negative simple cycle reach each other
        in_negative_component = {
            u for u in nodes if any((u, c) in reach and (c, u) in reach for c in negative)
        }
        flagged = {u for i, u in enumerate(nodes) if dist[i][i] < 0}
        assert negative <= flagged <= in_negative_component, (nodes, best)
        for (u, v), w in paths.items():
            assert dist[nodes.index(u)][nodes.index(v)] <= w
        seen["no path"] += len(nodes) ** 2 > len(reach)
    assert min(seen.values()) >= 200, seen


def test_close_diagonal_is_bounded_not_exact_on_a_negative_component():
    # node 2 shares a component with the cycle 0 <-> 1 but is not flagged,
    # and node 3 is flagged though every simple cycle through it weighs 1;
    # sub_specialize needs one flagged node per negative cycle, as the
    # caller's propagation forces the rest of the component
    edges = {(0, 1): -1, (1, 0): -1, (0, 2): 100, (2, 0): 100, (0, 3): 0, (3, 0): 1}
    dist = close([0, 1, 2, 3], bound_array({(v, u): -w for (u, v), w in edges.items()}, 4), 4)
    assert [dist[i][i] < 0 for i in range(4)] == [True, True, False, True]
