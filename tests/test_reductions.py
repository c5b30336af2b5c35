import random
from fractions import Fraction

import pytest

from test_golden import HALVES_AND_THIRDS
from tropsolve import (
    NEG_INF,
    Matrix,
    cell_membership,
    emit,
    leq_to_eq,
    matvec_maxplus,
    principal_solution,
    sample_cell,
    solve,
    verify_solution,
)
from tropsolve.core import DimensionMismatch, NegInfinity, UndefinedOperation, as_scalar
from tropsolve.reductions import (
    AffineInstance,
    affine_holds,
    decide_eq_b,
    eq_b_to_affine,
    hetero_to_homo,
    homogenize_affine,
    pin_variable,
    solve_affine,
    solve_eq_b,
    solve_hetero,
    solve_leq,
)


def contains_by_view(cell, x):
    """PinnedCell.contains, evaluated on the pinned cell's own fields (cross-check)."""
    xs = [as_scalar(v) for v in cell._embed(x)]
    del xs[cell.pinned_var]  # numbered as the fields are
    unit = Fraction(1, cell.scale)
    for v in cell.neg_inf:
        if not isinstance(xs[v], NegInfinity):
            return False
    for v, value in cell.fixed:
        if xs[v] != value * unit:
            return False
    values = {}
    for v, param, offset in cell.assigned:
        val = xs[v]
        t = val if isinstance(val, NegInfinity) else val - offset * unit
        if values.setdefault(param, t) != t:
            return False
    for param, bound in cell.lower:
        t = values[param]
        if isinstance(t, NegInfinity) or t < bound * unit:
            return False
    for param, bound in cell.upper:
        t = values[param]
        if not isinstance(t, NegInfinity) and t > bound * unit:
            return False
    for plus, minus, constant in cell.rows:
        tp, tm = values[plus], values[minus]
        if isinstance(tp, NegInfinity):
            continue
        if isinstance(tm, NegInfinity):
            return False
        if tp - tm + constant * unit > 0:
            return False
    return True

NI = "-inf"


def test_leq_to_eq_shapes():
    a = Matrix([[0, NI]])
    b = Matrix([[NI, 0]])
    merged, rhs = leq_to_eq(a, b)
    assert merged == Matrix([[0, 0]]) and rhs == b
    # dominated left side folds away entirely
    low, high = Matrix([[0, 1]]), Matrix([[2, 3]])
    assert leq_to_eq(low, high) == (high, high)


def test_leq_tautological_side():
    # A <= B entrywise: every x solves
    result = solve_leq(Matrix([[0, 1]]), Matrix([[2, 3]]))
    assert len(result.cells) == 1
    assert not result.cells[0].constraints
    assert cell_membership(result.cells[0], (5, -7))


def test_leq_forces_neg_inf():
    result = solve_leq(Matrix([[5]]), Matrix([[0]]))
    assert result.trivial_only


def test_leq_simple_halfspace():
    a = Matrix([[0, NI]])
    b = Matrix([[NI, 0]])
    result = solve_leq(a, b)
    # solutions are x1 <= x2 over T
    member = lambda x: any(cell_membership(c, x) for c in result.cells)
    assert member((0, 0)) and member((-3, 5)) and member((NI, 2)) and member((NI, NI))
    assert not member((1, 0))
    assert member((2, NI)) is False


def test_leq_law_random():
    rng = random.Random(4)
    values = [NEG_INF, Fraction(0), Fraction(1), Fraction(2)]
    grid = [NEG_INF, Fraction(0), Fraction(1)]
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
        b = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n)
        merged, rhs = leq_to_eq(a, b)
        x = [rng.choice(grid) for _ in range(n)]
        left = matvec_maxplus(a, x)
        right = matvec_maxplus(b, x)
        holds_leq = all(l <= r for l, r in zip(left, right))
        assert holds_leq == verify_solution(merged, rhs, x)


def test_hetero_to_homo_blocks():
    c = Matrix([[0]])
    d = Matrix([[0]])
    a, b = hetero_to_homo(c, d)
    assert a == Matrix([[0, NI]])
    assert b == Matrix([[NI, 0]])
    result = solve(a, b)
    member = lambda z: any(cell_membership(cell, z) for cell in result.cells)
    assert member((3, 3)) and not member((3, 4))


def test_hetero_forcing():
    c = Matrix([[NI, NI]])
    d = Matrix([[0]])
    result = solve_hetero(c, d)
    # y1 forced to -inf, x free
    assert all(2 in cell.neg_inf for cell in result.cells)
    member = lambda z: any(cell_membership(cell, z) for cell in result.cells)
    assert member((1, 2, NI))
    assert not member((1, 2, 0))


def test_hetero_no_rows():
    c = Matrix([], cols=2)
    d = Matrix([], cols=1)
    result = solve_hetero(c, d)
    assert len(result.cells) == 1
    assert cell_membership(result.cells[0], (0, 5, -1))


def test_hetero_round_trip_random():
    rng = random.Random(12)
    values = [NEG_INF, Fraction(0), Fraction(1), Fraction(2)]
    for trial in range(60):
        s, n, m = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        c = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(s)], cols=n)
        d = Matrix([[rng.choice(values) for _ in range(m)] for _ in range(s)], cols=m)
        result = solve_hetero(c, d)
        for cell in result.cells:
            for z in sample_cell(cell, 6, seed=trial, box=5):
                x, y = z[:n], z[n:]
                assert matvec_maxplus(c, x) == matvec_maxplus(d, y)


def test_homogenize_affine_blocks():
    inst = AffineInstance(
        Matrix([[0]]), Matrix([[NI]]), (NEG_INF,), (Fraction(0),)
    )
    a, b = homogenize_affine(inst)
    assert a == Matrix([[0, NI]]) and b == Matrix([[NI, 0]])
    pinned = solve_affine(inst)
    # x (+) -inf = 0 demands x = 0 exactly
    assert pinned.contains((0,))
    assert not pinned.contains((1,))
    assert not pinned.contains((NI,))


def test_affine_degenerates_to_homogeneous():
    a = Matrix([[3, 7, -1, NI], [6, 7, NI, NI], [1, 0, 1, NI]])
    b = Matrix([[NI, NI, NI, 8], [NI, NI, 5, 1], [1, 0, 1, 2]])
    inst = AffineInstance(a, b, (NEG_INF,) * 3, (NEG_INF,) * 3)
    pinned = solve_affine(inst)
    plain = solve(a, b)
    rng = random.Random(0)
    for cell in plain.cells:
        for point in sample_cell(cell, 10, seed=1, box=6):
            assert pinned.contains(point) or all(v is NEG_INF for v in point)


def test_affine_threshold_case():
    # max(x, 0) = max(x, 1) demands x >= 1
    inst = AffineInstance(Matrix([[0]]), Matrix([[0]]), (Fraction(0),), (Fraction(1),))
    pinned = solve_affine(inst)
    assert pinned.contains((1,))
    assert pinned.contains((8,))
    assert not pinned.contains((0,))
    assert not pinned.contains((NI,))


def test_affine_round_trip_random():
    rng = random.Random(21)
    values = [NEG_INF, Fraction(0), Fraction(1), Fraction(2)]
    for trial in range(60):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        inst = AffineInstance(
            Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n),
            Matrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], cols=n),
            tuple(rng.choice(values) for _ in range(m)),
            tuple(rng.choice(values) for _ in range(m)),
        )
        pinned = solve_affine(inst)
        for cell in pinned.cells:
            for x in cell.sample(6, seed=trial, box=5):
                assert affine_holds(inst, x)
                assert cell.contains(x)
                assert contains_by_view(cell, x)


def test_affine_holds_names_the_length_of_x():
    # [A | a] and [B | b] are evaluated at [x; 0], but a wrong-length x is
    # reported by its own length against A's columns
    inst = AffineInstance(
        Matrix([[0, 1, NI], [2, NI, 0]]), Matrix([[1, 0, 0], [NI, 3, 1]]), (0, NI), (NI, 1)
    )
    for x in [(), (0,), (0, 1), (0, 1, 2, 3)]:
        with pytest.raises(DimensionMismatch) as info:
            affine_holds(inst, x)
        assert str(info.value) == f"vector of length {len(x)} against 3 columns"


def test_pin_variable_view_matches_base(running_example):
    a, b = running_example
    for cell in solve(a, b).cells:
        pc = pin_variable(cell, 3, 0)
        assert pc is not None
        for x in pc.sample(30, seed=5, box=8):
            assert pc.contains(x) and contains_by_view(pc, x)


@pytest.mark.parametrize("value", [0.1, 1.0, True, False], ids=repr)
def test_pin_variable_rejects_inexact_values(running_example, value):
    cell = solve(*running_example).cells[0]
    with pytest.raises(TypeError):
        pin_variable(cell, 3, value)


@pytest.mark.parametrize("value", [NEG_INF, "-inf"], ids=repr)
def test_pin_variable_rejects_neg_inf(running_example, value):
    cell = solve(*running_example).cells[0]
    with pytest.raises(UndefinedOperation):
        pin_variable(cell, 3, value)


@pytest.mark.parametrize("var", [-1, 4, 9])
def test_pin_variable_rejects_a_variable_outside_the_cell(running_example, var):
    cell = solve(*running_example).cells[0]
    with pytest.raises(DimensionMismatch):
        pin_variable(cell, var, 0)


@pytest.mark.parametrize("var", [True, False, 1.0, 0.0, "1", None], ids=repr)
def test_pin_variable_rejects_a_variable_that_is_not_an_int(running_example, var):
    cell = solve(*running_example).cells[0]
    with pytest.raises(TypeError, match="var must be an int"):
        pin_variable(cell, var, 0)


def test_pin_variable_reads_value_tokens_and_skips_forced_variables():
    cell = solve(Matrix([[0, NI]]), Matrix([[0, 0]])).cells[0]  # x2 <= x1
    pc = pin_variable(cell, 0, "-7/4")
    assert pc.pinned_value == Fraction(-7, 4) and pc.scale == 4
    assert (pc.num_vars, pc.fixed, pc.assigned) == (1, (), ((0, 0, 0),))
    assert (pc.lower, pc.upper, pc.rows) == ((), ((0, -7),), ())
    forced = solve(Matrix([[0, NI]]), Matrix([[1, NI]])).cells[0]  # x1 = -inf
    assert forced.neg_inf == {0}
    assert pin_variable(forced, 0, 0) is None
    assert pin_variable(forced, 1, 0).neg_inf == {0}


def test_principal_solution_cases():
    assert principal_solution(Matrix([[1, 2]]), (3,)) == (2, 1)
    assert principal_solution(Matrix([[0, 0]]), (0,)) == (0, 0)
    assert principal_solution(Matrix([[0], [1]]), (0, 0)) == (-1,)
    assert principal_solution(Matrix([[0]]), (NI,)) == (NEG_INF,)


def test_principal_solution_rejects_neg_inf_matrix():
    with pytest.raises(UndefinedOperation):
        principal_solution(Matrix([[NI]]), (0,))


def test_principal_solution_closed_form_edges():
    # one -inf right-hand side makes every coordinate -inf
    assert principal_solution(Matrix([[0, 1], [2, 3]]), (NI, 5)) == (NEG_INF, NEG_INF)
    assert principal_solution(Matrix([[0], [0]]), (1, 2)) == (1,)
    with pytest.raises(DimensionMismatch):
        principal_solution(Matrix([[0, 1]]), (0, 0))
    with pytest.raises(DimensionMismatch):
        principal_solution(Matrix([], cols=2), ())
    with pytest.raises(UndefinedOperation):  # checked before the lengths
        principal_solution(Matrix([[NI, 1]]), (0, 0))


def test_decide_eq_b():
    assert decide_eq_b(Matrix([[1, 2]]), (3,)) == (2, 1)
    assert decide_eq_b(Matrix([[0], [0]]), (0, 1)) is None
    assert decide_eq_b(Matrix([[0]]), (NI,)) == (NEG_INF,)


def test_solve_eq_b_general_matrix():
    # A has a -inf entry, so the residuation shortcut does not apply
    a = Matrix([[0, NI], [NI, 0]])
    pinned = solve_eq_b(a, (Fraction(1), Fraction(2)))
    assert pinned.contains((1, 2))
    assert not pinned.contains((1, 1))
    assert not pinned.contains((NI, 2))


def test_eq_b_to_affine_reads_an_int_b_without_building_a_fraction(fraction_builds):
    a = Matrix([[0, 3], [NI, 1], [2, NI]])
    fraction_builds.clear()
    inst = eq_b_to_affine(a, (4, NI, "-2"))
    assert fraction_builds == []
    assert inst.b_vec == (4, NEG_INF, -2)
    assert [type(v) for v in inst.b_vec] == [int, NegInfinity, int]


@pytest.mark.parametrize("bad", [0.5, True])
@pytest.mark.parametrize("read_b", [eq_b_to_affine, decide_eq_b])
def test_reading_b_rejects_floats_and_bools(read_b, bad):
    with pytest.raises(TypeError) as got:
        read_b(Matrix([[0, 1]]), (bad,))
    with pytest.raises(TypeError) as want:
        as_scalar(bad)
    assert str(got.value) == str(want.value)


def test_solve_eq_b_no_solution():
    pinned = solve_eq_b(Matrix([[0], [0]]), (Fraction(0), Fraction(1)))
    assert not pinned.cells


def test_residuation_law_random():
    rng = random.Random(8)
    for _ in range(400):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = Matrix(
            [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)],
            cols=n,
        )
        b = tuple(Fraction(rng.randint(-5, 5)) for _ in range(m))
        star = principal_solution(a, b)
        assert all(l <= r for l, r in zip(matvec_maxplus(a, star), b))
        x = tuple(rng.choice([NEG_INF, Fraction(rng.randint(-8, 8))]) for _ in range(n))
        holds = all(l <= r for l, r in zip(matvec_maxplus(a, x), b))
        below = all(xi <= si for xi, si in zip(x, star))
        assert holds == below


def _pinned_line():
    return pin_variable(solve(Matrix([[0, 1]]), Matrix([[0, 1]])).cells[0], 0, 0)


@pytest.mark.parametrize(
    "count,box,error",
    [(0, 10, ValueError), (-3, 10, ValueError), (True, 10, TypeError), (2.0, 10, TypeError),
     (1, 0, ValueError), (1, 2.5, TypeError), (0, 2.5, ValueError), (1, True, TypeError)],
    ids=repr,
)
def test_pinned_sample_checks_count_and_box(count, box, error):
    pinned = _pinned_line()
    with pytest.raises(error, match="count|box"):
        pinned.sample(count, box=box)
    with pytest.raises(error, match="count|box"):
        sample_cell(pinned.base, count, box=box)


def test_pinned_sample_with_valid_arguments():
    pinned = _pinned_line()
    assert len(pinned.sample(1)) == 1
    assert len(pinned.sample(3, box=1)) == 3


def test_emit_of_a_pinned_set_builds_no_fraction_views():
    rng = random.Random(5200)
    cells = 0
    for _ in range(80):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a, b = (
            Matrix([[rng.choice(HALVES_AND_THIRDS) for _ in range(n)] for _ in range(m)], cols=n)
            for _ in "ab"
        )
        inst = AffineInstance(
            a, b,
            tuple(rng.choice(HALVES_AND_THIRDS) for _ in range(m)),
            tuple(rng.choice(HALVES_AND_THIRDS) for _ in range(m)),
        )
        result = solve_affine(inst)
        emit(result, "text")
        emit(result, "json")
        for cell in result.cells:
            assert "assignments" not in cell.base.__dict__
            assert "constraints" not in cell.base.__dict__
        cells += len(result.cells)
    assert cells >= 60
