"""The int oracle against the Fraction oracle it replaced, on seeded draws.

The reference functions below are the product-loop grid enumeration, the
Fraction membership rule, the Fraction sampler, the Fraction evaluation of
both max-plus products and the cross validation built from them, which
scans the cells in order for every grid point.  They are kept here as the
definition the faster code must match: the same lists in the same order,
the same booleans, the same points and the same reports, and the same
exceptions with the same messages.  ref_matvec_maxplus is the independent
definition of the product: matvec_maxplus, verify_solution and
affine_holds all evaluate it through core.row_maxima, and each is compared
with it.  The product loop is also compared with grid_solutions on shapes
whose candidate counts straddle the 4096-candidate block bound.
"""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

from conftest import (
    FRACTIONAL_VALUES,
    make_cell,
    planted_rows,
    ref_odot,
    ref_oplus,
    ref_scaled,
    ref_scaled_rows,
    ref_public,
    ref_unit,
    result_of,
    typed,
)
from tropsolve import (
    NEG_INF,
    GridSpec,
    Matrix,
    cell_membership,
    cross_validate,
    grid_solutions,
    matvec_maxplus,
    sample_cell,
    solve,
    verify_solution,
)
from tropsolve.cells import SolutionSet
import tropsolve.oracle as oracle_mod
from tropsolve.core import (
    DimensionMismatch,
    NegInfinity,
    TokenTooLarge,
    as_scalar,
)
from tropsolve.oracle import CrossValidationReport, GridTooLarge
from tropsolve.reductions import AffineInstance, affine_holds

GRID_POOL = (
    Fraction(-2),
    Fraction(-3, 2),
    Fraction(-1),
    Fraction(-1, 3),
    Fraction(0),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(1),
    Fraction(7, 4),
    Fraction(2),
    Fraction(5, 2),
)
MAX_CANDIDATES = 625


# ------------------------------------------------------------ references


def ref_grid_solutions(a, b, grid, cap=10**6):
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch("matrix shapes differ")
    n = a.cols
    points = grid.points()
    size = len(points) ** n
    if size > cap:
        raise GridTooLarge(f"{size} candidates exceed the cap of {cap}")
    scale = ref_unit([v for row in a.to_rows() + b.to_rows() for v in row] + list(grid.values))
    am = ref_scaled_rows(a, scale)
    bm = ref_scaled_rows(b, scale)
    scaled_points = [ref_scaled(p, scale) for p in points]
    out = []
    for combo in product(range(len(points)), repeat=n):
        xs = [scaled_points[c] for c in combo]
        good = True
        for i in range(a.rows):
            left = right = None
            for j in range(n):
                if xs[j] is None:
                    continue
                if am[i][j] is not None and (left is None or am[i][j] + xs[j] > left):
                    left = am[i][j] + xs[j]
                if bm[i][j] is not None and (right is None or bm[i][j] + xs[j] > right):
                    right = bm[i][j] + xs[j]
            if left != right:
                good = False
                break
        if good:
            out.append(tuple(points[c] for c in combo))
    return out


def ref_cell_membership(cell, x):
    xs = [as_scalar(v) for v in x]
    if len(xs) != cell.num_vars:
        raise DimensionMismatch(
            f"vector of length {len(xs)} against {cell.num_vars} variables"
        )
    for v in cell.neg_inf:
        if not isinstance(xs[v], NegInfinity):
            return False
    values = {}
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


def _ref_closed_dead_set(cell, rng, params):
    dead = {p for p in params if rng.random() < 0.3}
    changed = True
    while changed:
        changed = False
        for c in cell.constraints:
            if c.minus in dead and c.plus not in dead:
                dead.add(c.plus)
                changed = True
    return dead


def _ref_feasible_values(cell, alive, rng, box, fallbacks):
    active = [c for c in cell.constraints if c.plus in alive and c.minus in alive]
    for _ in range(40):
        vals = {p: Fraction(rng.randint(-box, box)) for p in alive}
        if all(vals[c.plus] - vals[c.minus] + c.constant <= 0 for c in active):
            return vals
    fallbacks.append(cell)
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
    neighbors = {p: set() for p in alive}
    for c in active:
        neighbors[c.plus].add(c.minus)
        neighbors[c.minus].add(c.plus)
    visited = set()
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


def ref_sample_cell(cell, count, seed=0, box=10, fallbacks=None):
    if count < 1:
        raise ValueError("count must be at least 1")
    fallbacks = [] if fallbacks is None else fallbacks
    rng = random.Random(seed)
    box_int = max(1, int(box))
    params = cell.parameters()
    out = [tuple(NEG_INF for _ in range(cell.num_vars))]
    while len(out) < count:
        dead = _ref_closed_dead_set(cell, rng, params)
        alive = [p for p in params if p not in dead]
        vals = _ref_feasible_values(cell, alive, rng, box_int, fallbacks) if alive else {}
        point = [NEG_INF] * cell.num_vars
        for v, (param, offset) in cell.assignments.items():
            if param in dead:
                continue
            point[v] = vals[param] + offset
        out.append(tuple(point))
    return out[:count]


def ref_matvec_maxplus(a, x):
    xs = tuple(map(as_scalar, x))
    if len(xs) != a.cols:
        raise DimensionMismatch(f"vector of length {len(xs)} against {a.cols} columns")
    out = []
    for i in range(a.rows):
        row = a.row(i)
        best = NEG_INF
        for j in range(a.cols):
            term = ref_odot(row[j], xs[j])
            if term > best:
                best = term
        out.append(best)
    return tuple(out)


def ref_verify_solution(a, b, x):
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch("matrix shapes differ")
    return ref_matvec_maxplus(a, x) == ref_matvec_maxplus(b, x)


def ref_cross_validate(a, b, grid, solution_set, samples_per_cell=20, seed=0, box=10):
    sols = ref_grid_solutions(a, b, grid)
    missed = []
    for x in sols:
        if all(isinstance(v, NegInfinity) for v in x):
            continue
        if not any(ref_cell_membership(cell, x) for cell in solution_set.cells):
            missed.append(x)
    invalid = []
    total = 0
    for idx, cell in enumerate(solution_set.cells):
        for point in ref_sample_cell(cell, samples_per_cell, seed=seed + idx, box=box):
            total += 1
            if not ref_verify_solution(a, b, point):
                invalid.append((idx, point))
    return CrossValidationReport(tuple(missed), tuple(invalid), len(sols), total)


# ------------------------------------------------------------ draws


def _pair(rng, m, n):
    """A random or planted pair, with some rows all -inf on one or both sides."""
    if rng.random() < 0.5:
        a, b = planted_rows(rng, m, n)
    else:
        a, b = (
            [[rng.choice(FRACTIONAL_VALUES) for _ in range(n)] for _ in range(m)] for _ in "ab"
        )
    for i in range(m):
        if rng.random() < 0.15:
            for side in rng.sample([a, b], rng.randint(1, 2)):
                side[i] = [NEG_INF] * n
    return Matrix(a, cols=n), Matrix(b, cols=n)


def _grid(rng, n):
    """A random grid of at most MAX_CANDIDATES candidates in n columns, -inf included."""
    most = max(k for k in range(1, len(GRID_POOL) + 1) if (k + 1) ** n <= MAX_CANDIDATES)
    values = rng.sample(GRID_POOL, rng.randint(1, most))
    return GridSpec(tuple(sorted(values)))


def _shape(rng):
    return rng.randint(0, 4), rng.randint(1, 5)


# ------------------------------------------------------------ tests


def test_grid_solutions_matches_the_product_loop():
    rng = random.Random(9100)
    found = all_neg_inf_rows = 0
    for _ in range(2000):
        m, n = _shape(rng)
        a, b = _pair(rng, m, n)
        grid = _grid(rng, n)
        expected = ref_grid_solutions(a, b, grid)
        assert grid_solutions(a, b, grid) == expected, (a, b, grid)
        found += _finite_points(expected)
        all_neg_inf_rows += any(
            all(isinstance(v, NegInfinity) for v in row) for row in a.to_rows() + b.to_rows()
        )
    # the family reaches nontrivial solutions and dead rows
    assert found >= 2000 and all_neg_inf_rows >= 300


def test_grid_solutions_errors_match_the_product_loop():
    a = Matrix([[0, 1, 2], [2, "1/2", 4]])
    grid = GridSpec.of(range(10))
    cases = [
        (a, a, grid, 100),
        (a, Matrix([[0, 1, 2]]), grid, 10**6),
        (a, Matrix([[0, 1], [1, 2]]), grid, 10**6),
    ]
    for args in cases:
        got = result_of(grid_solutions, *args)
        assert got == result_of(ref_grid_solutions, *args)
        assert got[0] == "raised" and got[1] in (GridTooLarge, DimensionMismatch)


def _vector(rng, n):
    """A vector of ints, strings, Fractions and -infs, in both spellings."""
    choices = (
        lambda: rng.randint(-3, 3),
        lambda: str(rng.randint(-3, 3)),
        lambda: f"{rng.randint(-9, 9)}/{rng.choice([2, 3, 4, 7])}",
        lambda: Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 5, 11])),
        lambda: "-inf",
        lambda: NEG_INF,
        lambda: "0.25",
    )
    return [rng.choice(choices)() for _ in range(n)]


def _nudged(rng, point):
    """point with one finite coordinate moved by a step the cell's scale may not divide."""
    finite = [j for j, v in enumerate(point) if not isinstance(v, NegInfinity)]
    out = list(point)
    if finite:
        j = rng.choice(finite)
        out[j] = out[j] + rng.choice([Fraction(1, 7), Fraction(-1, 2), Fraction(1, 12), 1])
    return out


def test_cell_membership_matches_the_fraction_rule():
    rng = random.Random(9200)
    verdicts = {True: 0, False: 0}
    draws = 0
    while draws < 2000:
        m, n = _shape(rng)
        a, b = _pair(rng, m, n)
        cells = solve(a, b).cells
        if not cells:
            continue
        members = [p for cell in cells for p in sample_cell(cell, 4, seed=draws, box=5)]
        for _ in range(8):
            pick = rng.random()
            if pick < 0.35:
                x = list(rng.choice(members))
            elif pick < 0.7:
                x = _nudged(rng, rng.choice(members))
            else:
                x = _vector(rng, n)
            draws += 1
            for cell in cells:
                expected = ref_cell_membership(cell, x)
                assert cell_membership(cell, x) is expected, (cell, x)
                verdicts[expected] += 1
    assert verdicts[True] >= 1000 and verdicts[False] >= 1000, verdicts
    # denominators 7 and 11 do not divide the cell's scale 6, on members too
    cell = make_cell(3, [(1, 1, "1/2"), (2, 1, "-2/3"), (3, 3, 0)], [(3, 1, "1/3")])
    for x, member in (
        ((Fraction(9, 14), Fraction(-11, 21), "-7/11"), True),
        ((Fraction(9, 14), Fraction(-11, 21), "-2/11"), False),
        ((Fraction(9, 14), Fraction(-10, 21), "-7/11"), False),
        (("-inf", NEG_INF, "3/7"), False),
        ((NEG_INF, "-inf", "-inf"), True),
    ):
        assert cell_membership(cell, x) is ref_cell_membership(cell, x) is member, x


def test_cell_membership_errors_match_the_fraction_rule():
    cell = make_cell(3, [(1, 1, "1/2"), (2, 1, "-2/3"), (3, 3, 0)], [(3, 1, "1/3")])
    for x in (
        (0, 0),
        (0, 0, 0, 0),
        (Fraction(1, 2), 0.5, 0),
        (1.0, "-inf", 2),
        (True, 0, 0),
        ("1/0", 0, 0),
        ("x", 0, 0),
        (0.5, 0),
        (0, 0, 0, 0.5),
    ):
        got = result_of(cell_membership, cell, x)
        assert got == result_of(ref_cell_membership, cell, x), x
        assert got[0] == "raised" and got[1] in (DimensionMismatch, TypeError, ValueError)
    # every entry is coerced before the length is checked
    for x in ((0.5, 0), (0, 0, 0, 0.5)):
        assert result_of(cell_membership, cell, x)[:2] == ("raised", TypeError)


# Cells built by hand in shapes solve does not build: the anchor (first
# assigned column) of a parameter is not at offset 0, or is not the
# parameter's own column, which may be -inf or not exist; scales 1, 12, 5
# and 6.  Rejection cannot draw the last cell's 1/2 <= t4 - t2 <= 2/3, so
# its members come from the sampler's fallback.
PLANNED_CELLS = (
    make_cell(3, [(1, 1, 2), (2, 1, 5), (3, 3, -1)], [(1, 3, -2), (3, 1, 1)]),
    make_cell(
        4,
        [(1, 3, "1/2"), (2, 3, "-1/3"), (4, 4, "3/4")],
        [(3, 4, "1/6"), (4, 3, "-5/4")],
        neg_inf=(3,),
    ),
    make_cell(3, [(1, 5, 1), (2, 5, 0), (3, 2, "2/5")], [(5, 2, "-3/5"), (2, 5, -4)]),
    make_cell(
        5,
        [(1, 2, "-1/2"), (2, 2, "1/3"), (3, 2, 1), (4, 4, "7/6"), (5, 4, 0)],
        [(2, 4, "1/2"), (4, 2, "-2/3")],
    ),
)


def _planned_points(rng, cell, seed):
    """Members, nudged members, members with one column at -inf, and random vectors."""
    points = []
    for member in ref_sample_cell(cell, 10, seed=seed, box=4):
        points.append(list(member))
        points.append(_nudged(rng, member))
        dropped = list(member)
        dropped[rng.randrange(cell.num_vars)] = NEG_INF
        points.append(dropped)
        points.append(_vector(rng, cell.num_vars))
    return points


def test_cell_membership_plan_matches_the_fraction_rule_on_built_cells():
    rng = random.Random(9250)
    verdicts = {True: 0, False: 0}
    for seed in range(40):
        for cell in PLANNED_CELLS:
            for x in _planned_points(rng, cell, seed):
                expected = ref_cell_membership(cell, x)
                assert cell_membership(cell, x) is expected, (cell, x)
                verdicts[expected] += 1
    assert verdicts[True] >= 1500 and verdicts[False] >= 2500, verdicts
    assert [c.scale for c in PLANNED_CELLS] == [1, 12, 5, 6]


def test_cell_plan_is_lazy_and_seen_by_no_comparison_pickle_or_copy(running_example):
    solved = solve(*running_example).cells
    assert solved and not any("_plan" in vars(cell) for cell in solved)
    rng = random.Random(9260)
    for cell in PLANNED_CELLS:
        twin = replace(cell)
        shown = repr(cell), hash(cell)
        points = _planned_points(rng, cell, 0)
        verdicts = [ref_cell_membership(cell, x) for x in points]
        assert [cell_membership(cell, x) for x in points] == verdicts
        assert "_plan" in vars(cell) and "_plan" not in vars(twin)
        assert (repr(cell), hash(cell)) == (repr(twin), hash(twin)) == shown
        assert cell == twin and len({cell, twin}) == 1
        for original in (cell, twin):
            for clone in (
                pickle.loads(pickle.dumps(original)),
                copy.copy(original),
                copy.deepcopy(original),
            ):
                assert clone == cell and repr(clone) == shown[0]
                assert [cell_membership(clone, x) for x in points] == verdicts


def _sampled_cells(rng, count):
    cells = []
    while len(cells) < count:
        m, n = _shape(rng)
        cells.extend(solve(*_pair(rng, m, n)).cells)
    # Rejection cannot hit t1 - t2 = 1/3 with whole draws, so these two take
    # the shortest-path fallback whenever both parameters are alive; the
    # constraint from parameter 1 to parameter 4 puts 4 at -inf with 1.
    cells.append(
        make_cell(
            5,
            [(1, 1, "1/2"), (2, 2, "-2/3"), (3, 1, "5/4"), (4, 4, 0), (5, 5, "7/3")],
            [(1, 2, "-1/3"), (2, 1, "1/3"), (4, 1, "5/2"), (5, 4, -1)],
        )
    )
    cells.append(
        make_cell(3, [(1, 1, 0), (2, 2, "1/6"), (3, 2, "-1/6")], [(1, 2, "1/3"), (2, 1, "-1/3")])
    )
    return cells


def test_sample_cell_matches_the_fraction_sampler():
    rng = random.Random(9300)
    fallbacks: list = []
    dead = 0
    for idx, cell in enumerate(_sampled_cells(rng, 150)):
        for seed in (idx, 1000 + idx):
            count = rng.randint(1, 30)
            box = rng.choice([1, 3, 10])
            expected = ref_sample_cell(cell, count, seed=seed, box=box, fallbacks=fallbacks)
            assert sample_cell(cell, count, seed=seed, box=box) == expected, (cell, seed)
            dead += sum(
                any(isinstance(p[v], NegInfinity) for v in cell.assignments) for p in expected[1:]
            )
    assert fallbacks and dead, "the draws must reach the fallback and dead parameters"
    assert result_of(sample_cell, cell, 0) == result_of(ref_sample_cell, cell, 0)


def test_sample_cell_and_cross_validate_accept_boxes_past_a_machine_word():
    # 2 * box + 1 draws past sys.maxsize: a range of them has no len(),
    # while getrandbits draws any box, as randint does
    rng = random.Random(9310)
    cells = _sampled_cells(rng, 5)
    fallbacks: list = []
    for box in (2**62, 10**30):
        for idx, cell in enumerate(cells):
            expected = ref_sample_cell(cell, 8, seed=idx, box=box, fallbacks=fallbacks)
            assert sample_cell(cell, 8, seed=idx, box=box) == expected, (cell, box)
    assert cells[-1] in fallbacks and cells[-2] in fallbacks
    samples = 0
    for trial in range(12):
        m, n = _shape(rng)
        a, b = _pair(rng, m, n)
        args = (a, b, _grid(rng, n), solve(a, b), 3, trial, rng.choice([2**62, 10**30]))
        expected = ref_cross_validate(*args)
        assert cross_validate(*args) == expected, (a, b)
        samples += expected.sample_count
    assert samples >= 30, samples


def test_cross_validate_matches_the_reference():
    rng = random.Random(9400)
    missed = invalid = 0
    for trial in range(400):
        m, n = _shape(rng)
        a, b = _pair(rng, m, n)
        result = solve(a, b)
        if result.cells and rng.random() < 0.5:
            kept = result.cells[::2]
            result = SolutionSet(kept, result.globally_forced, not kept, 0, n)
        if rng.random() < 0.2:
            a, b = _pair(rng, m, n)  # cells of another pair: misses and invalid points
        grid = _grid(rng, n)
        args = (a, b, grid, result, rng.randint(1, 6), trial, rng.randint(1, 8))
        expected = ref_cross_validate(*args)
        assert cross_validate(*args) == expected, (a, b, grid)
        missed += bool(expected.missed)
        invalid += bool(expected.invalid)
    assert missed >= 20 and invalid >= 20, (missed, invalid)


def _fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def _spelled(rng, v):
    """v as the CLI or a library caller may pass it: int, string or Fraction."""
    if isinstance(v, NegInfinity):
        return rng.choice([NEG_INF, "-inf"])
    pick = rng.random()
    if pick < 0.3 and v.denominator == 1:
        return int(v)
    return str(v) if pick < 0.6 else v


def _side_max(row, x):
    terms = [v + xj for v, xj in zip(row, x) if v is not NEG_INF and xj is not NEG_INF]
    return max(terms, default=NEG_INF)


def test_verify_solution_matches_the_fraction_products():
    rng = random.Random(9500)
    verdicts = {True: 0, False: 0}
    all_neg_inf_rows = 0
    for _ in range(3000):
        m, n = _shape(rng)
        p_inf = rng.choice([0, 0.2, 0.5])
        a, b = (
            [[NEG_INF if rng.random() < p_inf else _fraction(rng) for _ in range(n)] for _ in range(m)]
            for _ in "ab"
        )
        for i in range(m):
            if rng.random() < 0.15:
                for side in rng.sample([a, b], rng.randint(1, 2)):
                    side[i] = [NEG_INF] * n
                all_neg_inf_rows += 1
        x = [NEG_INF if rng.random() < p_inf else _fraction(rng) for _ in range(n)]
        live = [j for j in range(n) if x[j] is not NEG_INF]
        if live and rng.random() < 0.45:
            # plant: one entry per row lifts the lower side to the higher one
            for i in range(m):
                sides = sorted([a[i], b[i]], key=lambda row: _side_max(row, x))
                top = _side_max(sides[1], x)
                if top is not NEG_INF:
                    k = rng.choice(live)
                    sides[0][k] = top - x[k]
        args = (Matrix(a, cols=n), Matrix(b, cols=n), [_spelled(rng, v) for v in x])
        expected = ref_verify_solution(*args)
        assert verify_solution(*args) is expected, args
        verdicts[expected] += 1
    assert verdicts[True] >= 1000 and verdicts[False] >= 1000, verdicts
    assert all_neg_inf_rows >= 300


def test_verify_solution_errors_match_the_fraction_products():
    a = Matrix([[0, "1/2", "-inf"], [2, 1, 4]])
    b = Matrix([["-inf", 1, 0], [2, "-inf", "1/3"]])
    cases = [
        (a, Matrix([[0, 1, 2]]), (0, 0, 0)),
        (a, Matrix([[0, 1], [1, 2]]), (0, 0)),
        (a, Matrix([[0, 1, 2]]), (0.5, 0, 0)),  # the shapes are checked first
        (a, b, (0, 0)),
        (a, b, (0, 0, 0, 0)),
        (a, b, (0, 0.5, 0)),
        (a, b, (0, 0.5)),  # the entries are coerced before the length is checked
        (a, b, (True, 0, 0)),
        (a, b, (0, 0, "x")),
        (a, b, ("1/0", 0)),
        (a, b, (0, "1" * 101, 0)),
    ]
    for args in cases:
        got = result_of(verify_solution, *args)
        assert got == result_of(ref_verify_solution, *args), args
        assert got[0] == "raised" and got[1] in (DimensionMismatch, TypeError, ValueError, TokenTooLarge)


def ref_affine_holds(inst, x):
    xs = tuple(map(as_scalar, x))
    left = ref_matvec_maxplus(inst.a, xs)
    right = ref_matvec_maxplus(inst.b, xs)
    return tuple(ref_oplus(l, v) for l, v in zip(left, inst.a_vec)) == tuple(
        ref_oplus(r, v) for r, v in zip(right, inst.b_vec)
    )


def _entry(rng, p_inf):
    return NEG_INF if rng.random() < p_inf else _fraction(rng)


def test_matvec_maxplus_matches_the_fraction_product():
    rng = random.Random(9700)
    finite = neg_inf = 0
    for _ in range(3000):
        m, n = _shape(rng)
        p_inf = rng.choice([0, 0.2, 0.5, 1])
        a = Matrix([[_entry(rng, p_inf) for _ in range(n)] for _ in range(m)], cols=n)
        x = [_spelled(rng, _entry(rng, p_inf)) for _ in range(n)]
        expected = ref_matvec_maxplus(a, x)
        assert typed(matvec_maxplus(a, x)) == typed(map(ref_public, expected)), (a, x)
        finite += sum(not isinstance(v, NegInfinity) for v in expected)
        neg_inf += sum(isinstance(v, NegInfinity) for v in expected)
    assert finite >= 1000 and neg_inf >= 1000, (finite, neg_inf)


def test_matvec_maxplus_errors_match_the_fraction_product():
    a = Matrix([[0, "1/2", "-inf"], [2, 1, 4]])
    cases = [
        (a, (0, 0)),
        (a, (0, 0, 0, 0)),
        (Matrix([], cols=2), (0,)),
        (a, (0, 0.5, 0)),
        (a, (0, 0.5)),  # the entries are coerced before the length is checked
        (a, (True, 0, 0)),
        (a, (0, 0, "x")),
        (a, ("1/0", 0)),
        (a, (0, "1" * 101, 0)),
    ]
    for args in cases:
        got = result_of(matvec_maxplus, *args)
        assert got == result_of(ref_matvec_maxplus, *args), args
        assert got[0] == "raised" and got[1] in (DimensionMismatch, TypeError, ValueError, TokenTooLarge)


def _affine(rng, m, n, p_inf):
    a, b = (Matrix([[_entry(rng, p_inf) for _ in range(n)] for _ in range(m)], cols=n) for _ in "ab")
    return AffineInstance(a, b, tuple(_entry(rng, p_inf) for _ in range(m)),
                          tuple(_entry(rng, p_inf) for _ in range(m)))


def test_affine_holds_matches_the_fraction_products():
    rng = random.Random(9800)
    verdicts = {True: 0, False: 0}
    for _ in range(3000):
        m, n = _shape(rng)
        p_inf = rng.choice([0, 0.2, 0.5])
        inst = _affine(rng, m, n, p_inf)
        x = [_entry(rng, p_inf) for _ in range(n)]
        if rng.random() < 0.5:
            # plant: raise the constant of each row's lower side to its higher side
            left, right = ref_matvec_maxplus(inst.a, x), ref_matvec_maxplus(inst.b, x)
            lhs = [ref_oplus(l, v) for l, v in zip(left, inst.a_vec)]
            rhs = [ref_oplus(r, v) for r, v in zip(right, inst.b_vec)]
            a_vec, b_vec = list(inst.a_vec), list(inst.b_vec)
            for i in range(m):
                if lhs[i] < rhs[i]:
                    a_vec[i] = rhs[i]
                elif rhs[i] < lhs[i]:
                    b_vec[i] = lhs[i]
            inst = AffineInstance(inst.a, inst.b, tuple(a_vec), tuple(b_vec))
        x = [_spelled(rng, v) for v in x]
        expected = ref_affine_holds(inst, x)
        assert affine_holds(inst, x) is expected, (inst, x)
        verdicts[expected] += 1
    assert verdicts[True] >= 1000 and verdicts[False] >= 1000, verdicts


def test_affine_holds_errors_match_the_fraction_products():
    inst = AffineInstance(
        Matrix([[0, "1/2", "-inf"], [2, 1, 4]]),
        Matrix([["-inf", 1, 0], [2, "-inf", "1/3"]]),
        (Fraction(1), NEG_INF),
        (NEG_INF, Fraction(-1, 2)),
    )
    empty = AffineInstance(Matrix([], cols=2), Matrix([], cols=2), (), ())
    cases = [
        (inst, (0, 0)),
        (inst, (0, 0, 0, 0)),
        (empty, (0,)),
        (inst, (0, 0.5, 0)),
        (inst, (0, 0.5)),  # the entries are coerced before the length is checked
        (inst, (True, 0, 0)),
        (inst, (0, 0, "x")),
        (inst, ("1/0", 0)),
        (inst, (0, "1" * 101, 0)),
    ]
    for args in cases:
        got = result_of(affine_holds, *args)
        assert got == result_of(ref_affine_holds, *args), args
        assert got[0] == "raised" and got[1] in (DimensionMismatch, TypeError, ValueError, TokenTooLarge)


def _adversarial_orders(cells, cover):
    """The cells reversed, duplicated, with the most covering cell last, and with each one dropped."""
    most = max(range(len(cells)), key=cover.__getitem__)
    yield cells[::-1]
    yield cells + cells[::-1]
    yield cells[:most] + cells[most + 1 :] + (cells[most],)
    for k in range(len(cells)):
        yield cells[:k] + cells[k + 1 :]


def _misses_between_hits(sols, missed):
    """How many misses have a covered point both before and after them."""
    flags = [x in missed for x in sols if any(not isinstance(v, NegInfinity) for v in x)]
    covered = [k for k, flag in enumerate(flags) if not flag]
    return sum(flags[covered[0] : covered[-1]]) if covered else 0


def test_cross_validate_matches_the_reference_in_adversarial_cell_orders():
    rng = random.Random(9600)
    orders = between = 0
    while orders < 600:
        m, n = _shape(rng)
        a, b = _pair(rng, m, n)
        result = solve(a, b)
        if len(result.cells) < 2:
            continue
        grid = _grid(rng, n)
        sols = ref_grid_solutions(a, b, grid)
        cover = [sum(ref_cell_membership(cell, x) for x in sols) for cell in result.cells]
        for cells in _adversarial_orders(result.cells, cover):
            orders += 1
            reordered = SolutionSet(cells, result.globally_forced, not cells, 0, n)
            args = (a, b, grid, reordered, 2, orders, 4)
            expected = ref_cross_validate(*args)
            assert cross_validate(*args) == expected, (a, b, grid, cells)
            between += _misses_between_hits(sols, set(expected.missed))
    assert between >= 50, between


def test_cross_validate_tests_the_last_covering_cell_first(
    monkeypatch, running_example, empty_case_example, three_by_three_example, two_by_seven_example
):
    """Pinned membership-call counts on the README fixtures, below the per-cell scan's."""
    calls = []
    real = oracle_mod.cell_membership
    monkeypatch.setattr(
        oracle_mod, "cell_membership", lambda cell, x: calls.append(cell) or real(cell, x)
    )
    grid = GridSpec.of(range(-2, 3))
    counts, scans = [], []
    for a, b in (running_example, empty_case_example, three_by_three_example, two_by_seven_example):
        result = solve(a, b)
        calls.clear()
        assert cross_validate(a, b, grid, result, samples_per_cell=1).ok
        counts.append(len(calls))
        scan = 0  # every cell in order, up to the first that covers the point
        for x in grid_solutions(a, b, grid):
            if any(not isinstance(v, NegInfinity) for v in x):
                hits = [ref_cell_membership(cell, x) for cell in result.cells]
                scan += hits.index(True) + 1 if True in hits else len(hits)
        scans.append(scan)
    assert counts == [14, 0, 5, 11892], counts
    assert scans == [27, 0, 5, 40711], scans


# ------------------------------------------------------------ the block split


def _finite_points(solutions):
    """How many of the grid solutions have a finite coordinate."""
    return sum(any(not isinstance(v, NegInfinity) for v in x) for x in solutions)


def test_grid_solutions_matches_the_product_loop_across_the_block_bound():
    # k**r <= 4096 candidates in the trailing block: 2 points decide 12
    # columns bit-parallel and 3 points 7, so n = 13, 14 and 8, 9 leave one
    # or two leading columns to the depth-first search, and n = 12 none
    rng = random.Random(9900)
    leading = [0, 0, 0]
    found = 0
    for k, n in [(2, 12), (2, 13), (2, 14), (3, 8), (3, 9)] * 2:
        a, b = _pair(rng, rng.randint(1, 3), n)
        grid = GridSpec(tuple(sorted(rng.sample(GRID_POOL, k - 1))))
        expected = ref_grid_solutions(a, b, grid)
        assert grid_solutions(a, b, grid) == expected, (a, b, grid)
        leading[n - (12 if k == 2 else 7)] += 1
        found += _finite_points(expected) > 0
    assert min(leading) >= 2 and found >= 4, (leading, found)


def test_grid_solutions_matches_the_product_loop_at_block_widths_zero_to_two():
    # k grid points (-inf included) give a block of the largest r <= n with
    # k**r <= 4096, decoded from digit tables of r - r // 2 and r // 2
    # columns: k = 4097 leaves r = 0 (both tables hold only the empty
    # tuple), 4096 gives r = 1 (so does low), 64 with n = 2 gives r = 2 and
    # 65 with n = 2 gives r = 1 below one leading column
    rng = random.Random(9901)
    # the values planted_rows draws its solution from, so that a planted
    # pair keeps a finite grid solution, padded with other ints
    planted = [v for v in FRACTIONAL_VALUES if v is not NEG_INF]
    others = sorted(set(range(-30000, 30000)).difference(planted))
    found = {4097: 0, 4096: 0, 64: 0, 65: 0}
    for k, n in [(4097, 1), (4096, 1), (64, 2), (65, 2)] * 4:
        a, b = _pair(rng, rng.randint(1, 3), n)
        grid = GridSpec.of(planted + rng.sample(others, k - 1 - len(planted)))
        assert len(grid.points()) == k
        expected = ref_grid_solutions(a, b, grid)
        assert grid_solutions(a, b, grid) == expected, (a, b, grid)
        found[k] += _finite_points(expected) > 0
    assert min(found.values()) >= 1, found


def test_cross_validate_verifies_each_distinct_point_once(monkeypatch):
    """A failing point drawn again is verified once and listed at each draw."""
    # x0 = t and x1 = t + 1/2 never balance [0 -inf] against [-inf 0] when
    # t is finite, and a box of 1 leaves t three values, so draws repeat
    a, b = Matrix([[0, NEG_INF]]), Matrix([[NEG_INF, 0]])
    cell = make_cell(2, [(1, 1, 0), (2, 1, "1/2")], [])
    result = SolutionSet((cell, cell), frozenset(), False, 0, 2)
    calls = []
    real = oracle_mod.verify_solution
    monkeypatch.setattr(
        oracle_mod, "verify_solution", lambda a, b, x: calls.append(x) or real(a, b, x)
    )
    args = (a, b, GridSpec.of([0]), result, 20, 0, 1)
    report = cross_validate(*args)
    assert report == ref_cross_validate(*args)
    samples = [(idx, p) for idx in (0, 1) for p in sample_cell(cell, 20, seed=idx, box=1)]
    distinct = {p for _, p in samples}
    assert report.sample_count == len(samples) == 40
    assert len(calls) == len(set(calls)) == len(distinct) == 4  # -inf and t in {-1, 0, 1}
    assert list(report.invalid) == [(idx, p) for idx, p in samples if p[0] is not NEG_INF]
    assert max(list(report.invalid).count(entry) for entry in report.invalid) >= 2
