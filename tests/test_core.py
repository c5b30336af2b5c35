import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import make_cell, ref_oplus, ref_scaled_rows, ref_unit, result_of
from tropsolve import NEG_INF, Matrix, cell_membership, matvec_maxplus, solve, verify_solution
from tropsolve.core import (
    MAX_TOKEN_DIGITS,
    DimensionMismatch,
    NegInfinity,
    TokenTooLarge,
    _to_ints,
    as_scalar,
)
from tropsolve.preprocess import maximum_matrix
from tropsolve.reductions import AffineInstance, hetero_to_homo, homogenize_affine

rationals = st.fractions(max_denominator=50)
scalars = st.one_of(st.just(NEG_INF), rationals)

# The scalar operations as the product evaluates them: one row [0 0]
# against (p, q) gives p (+) q, and one entry a against x gives a (.) x.
_ROW_OF_ZEROS = Matrix([[0, 0]])


def _oplus(p, q):
    return matvec_maxplus(_ROW_OF_ZEROS, [p, q])[0]


def _odot(a, x):
    return matvec_maxplus(Matrix([[a]]), [x])[0]


def test_scalar_ops_basic():
    assert _oplus(Fraction(3), Fraction(7)) == 7 and _odot(Fraction(3), Fraction(7)) == 10


def test_scalar_ops_neg_inf_neutral_absorbing():
    assert _oplus(NEG_INF, Fraction(5)) == 5
    assert _odot(NEG_INF, Fraction(5)) is NEG_INF


def test_scalar_ops_zero_is_multiplicative_neutral():
    assert _oplus(Fraction(0), Fraction(0)) == 0 and _odot(Fraction(0), Fraction(0)) == 0
    assert _odot(0, Fraction(-7, 3)) == Fraction(-7, 3)


def test_total_order():
    assert NEG_INF < Fraction(-10**9) < Fraction(0)
    assert not NEG_INF < NEG_INF
    assert NEG_INF <= NEG_INF
    assert max(Fraction(3), NEG_INF) == 3
    assert min(Fraction(3), NEG_INF) is NEG_INF


def test_neg_inf_is_one_object_compared_by_identity():
    """NEG_INF keeps object's identity eq and hash, across pickle and deepcopy too."""
    assert NEG_INF == NEG_INF and NegInfinity() is NEG_INF
    assert 0 != NEG_INF and NEG_INF != 0
    assert Fraction(0) != NEG_INF and NEG_INF != Fraction(0)
    assert NEG_INF not in (0, Fraction(0), -(10**100))
    table = {NEG_INF: "bottom", 0: "zero"}
    assert table[NEG_INF] == "bottom" and table[NegInfinity()] == "bottom"
    assert len({NEG_INF, NegInfinity(), 0}) == 2
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(NEG_INF, protocol)) is NEG_INF
    assert copy.deepcopy(NEG_INF) is NEG_INF and copy.copy(NEG_INF) is NEG_INF
    assert copy.deepcopy((NEG_INF, [NEG_INF])) == (NEG_INF, [NEG_INF])
    test_total_order()


def test_odot_extended_rules():
    assert _odot(Fraction(2), NEG_INF) is NEG_INF
    assert _odot(NEG_INF, NEG_INF) is NEG_INF
    assert _odot(Fraction(-3, 2), Fraction(7, 2)) == 2


def test_as_scalar_tokens():
    assert as_scalar("7/2") == Fraction(7, 2)
    assert as_scalar("0.25") == Fraction(1, 4)
    assert as_scalar("-inf") is NEG_INF
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(ValueError):
        as_scalar("1/0")


def test_as_scalar_token_size_bound():
    assert MAX_TOKEN_DIGITS == 100
    assert as_scalar("1e100") == 10**100
    assert as_scalar("-2.5e-100") == Fraction(-25, 10**101)
    assert as_scalar("9" * 100) == 10**100 - 1
    # every digit Fraction reads counts, non-ASCII ones too
    for token in ("1e101", "1E-101", "1" * 101, "1/" + "3" * 100, "0." + "0" * 100,
                  "\u0663" * 101, "1" * 50 + "\uff11" * 51):
        with pytest.raises(TokenTooLarge, match="MAX_TOKEN_DIGITS"):
            as_scalar(token)
    with pytest.raises(ValueError):
        as_scalar("1e5/3")  # malformed exponent: rejected by Fraction


@given(scalars)
def test_oplus_idempotent(a):
    assert _oplus(a, a) == a


@given(scalars, scalars, scalars)
def test_oplus_associative(a, b, c):
    assert _oplus(_oplus(a, b), c) == _oplus(a, _oplus(b, c))


def test_matvec_running_example(running_example):
    a, _ = running_example
    assert matvec_maxplus(a, [5, -1, 6, 0]) == (8, 11, 7)


def test_matvec_all_neg_inf_vector(running_example):
    a, _ = running_example
    assert matvec_maxplus(a, [NEG_INF] * 4) == (NEG_INF,) * 3


def test_matvec_identity():
    ident = Matrix([[0, "-inf"], ["-inf", 0]])
    assert matvec_maxplus(ident, [Fraction(5), NEG_INF]) == (5, NEG_INF)


def test_matvec_dimension_mismatch(running_example):
    a, _ = running_example
    with pytest.raises(DimensionMismatch):
        matvec_maxplus(a, [0, 0])


@given(st.lists(scalars, min_size=3, max_size=3), st.lists(rationals, min_size=3, max_size=3))
def test_matvec_monotone(x, bump):
    a = Matrix([[1, "-inf", 3], [0, 2, "-inf"]])
    bigger = [v if v is NEG_INF else v + abs(d) for v, d in zip(x, bump)]
    low = matvec_maxplus(a, x)
    high = matvec_maxplus(a, bigger)
    assert all(l <= h for l, h in zip(low, high))


def test_matrix_rejects_ragged_and_empty():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix([])
    zero_rows = Matrix([], cols=3)
    assert zero_rows.rows == 0 and zero_rows.cols == 3


def test_matrix_never_holds_pos_inf():
    with pytest.raises(ValueError):
        Matrix([["+inf"]])
    with pytest.raises(TypeError):
        Matrix([[float("inf")]])


def test_scaled_entries_exact():
    m = Matrix([["1/2", "-inf", "-2/3"], [4, "5/6", 0]])
    assert m.unit == 6
    assert m.ints == ((3, None, -4), (24, 5, 0))
    assert Matrix([["-inf"]]).unit == 1 and Matrix([["-inf"]]).ints == ((None,),)
    assert Matrix([], cols=2).ints == () and Matrix([], cols=2).unit == 1


def _spelled(rng, value):
    """value as an int, a Fraction or a token string, picked at random."""
    if value is NEG_INF:
        return rng.choice((NEG_INF, "-inf", " -oo "))
    choices = [value, str(value)]
    if value.denominator == 1:
        choices.append(int(value))
    if 10**6 % value.denominator == 0:  # a terminating decimal, spelled exactly
        choices.append(str(Decimal(value.numerator) / value.denominator))
    return rng.choice(choices)


def _mixed_rows(rng, rows, cols):
    """Entries over denominators 1 to 15, negative ones too, and -inf."""
    dens = rng.choice(((1,), (1, 2), (2, 3, 4), (1, 5, 7, 12), (6, 10, 15)))
    density = rng.choice((0.0, 0.3, 0.9, 1.0))
    return [
        [NEG_INF if rng.random() < density else Fraction(rng.randint(-60, 60), rng.choice(dens))
         for _ in range(cols)]
        for _ in range(rows)
    ]


def test_scaling_helpers_match_the_per_entry_scaling():
    """A Matrix's (unit, ints) is the per-entry scaling of its Fraction view."""
    rng = random.Random(2718)
    units = set()
    for _ in range(1500):
        m, n = rng.randint(0, 6), rng.randint(1, 7)
        rows = _mixed_rows(rng, m, n)
        matrix = Matrix([[_spelled(rng, v) for v in row] for row in rows], cols=n)
        assert matrix.to_rows() == rows
        unit = ref_unit(v for row in rows for v in row)
        assert matrix.unit == unit
        assert matrix.ints == tuple(map(tuple, ref_scaled_rows(matrix, unit)))
        assert all(type(v) is int for row in matrix.ints for v in row if v is not None)
        units.add(unit)
    assert 1 in units and len(units) >= 10


def test_equal_values_give_equal_matrices_whatever_the_spelling():
    spellings = ("1/2", "0.5", Fraction(1, 2), " 2/4 ", "5e-1")
    matrices = [Matrix([[v, "-inf", 3]]) for v in spellings]
    assert len(set(matrices)) == 1
    assert len({hash(m) for m in matrices}) == 1
    assert all(m.unit == 2 and m.ints == ((1, None, 6),) for m in matrices)
    ints = [Matrix([[v]]) for v in (3, "3", Fraction(3), "3.0", Fraction(6, 2))]
    assert len(set(ints)) == 1 and all(m.unit == 1 and m.ints == ((3,),) for m in ints)
    assert Matrix([[1, 2]]) != Matrix([[1, "5/2"]])


# The bridges as they were built on Fraction entries, one scalar at a time.


def ref_maximum_matrix(a, b):
    return Matrix(
        [[ref_oplus(a[i, j], b[i, j]) for j in range(a.cols)] for i in range(a.rows)],
        cols=a.cols,
    )


def ref_hetero_to_homo(c, d):
    n, m = c.cols, d.cols
    a_rows = [[c[i, j] for j in range(n)] + [NEG_INF] * m for i in range(c.rows)]
    b_rows = [[NEG_INF] * n + [d[i, j] for j in range(m)] for i in range(c.rows)]
    return Matrix(a_rows, cols=n + m), Matrix(b_rows, cols=n + m)


def ref_homogenize_affine(inst):
    a_rows = [
        [inst.a[i, j] for j in range(inst.a.cols)] + [inst.a_vec[i]] for i in range(inst.a.rows)
    ]
    b_rows = [
        [inst.b[i, j] for j in range(inst.b.cols)] + [inst.b_vec[i]] for i in range(inst.b.rows)
    ]
    return Matrix(a_rows, cols=inst.a.cols + 1), Matrix(b_rows, cols=inst.b.cols + 1)


def _same_matrix(got, expected):
    """Equal, with equal hashes, views and units (the unit of the view's entries)."""
    assert got == expected and hash(got) == hash(expected)
    assert got.to_rows() == expected.to_rows()
    assert got.unit == ref_unit(v for row in got.to_rows() for v in row)


def test_bridges_match_the_fraction_built_versions():
    rng = random.Random(3141)
    shrunk = 0
    for _ in range(1500):
        m, n, k = rng.randint(0, 5), rng.randint(1, 6), rng.randint(1, 4)
        a, b = (Matrix(_mixed_rows(rng, m, n), cols=n) for _ in "ab")
        merged = maximum_matrix(a, b)
        _same_matrix(merged, ref_maximum_matrix(a, b))
        shrunk += merged.unit < max(a.unit, b.unit)
        d = Matrix(_mixed_rows(rng, m, k), cols=k)
        for got, expected in zip(hetero_to_homo(a, d), ref_hetero_to_homo(a, d)):
            _same_matrix(got, expected)
        vecs = _mixed_rows(rng, 2, m) if m else [[], []]
        inst = AffineInstance(a, b, tuple(vecs[0]), tuple(_spelled(rng, v) for v in vecs[1]))
        for got, expected in zip(homogenize_affine(inst), ref_homogenize_affine(inst)):
            _same_matrix(got, expected)
    assert shrunk >= 20, shrunk


def test_an_int_matrix_solves_without_building_a_fraction(running_example, fraction_builds):
    """Matrices of ints and '-inf' are parsed and solved on ints alone."""
    rng = random.Random(77)
    pairs = [
        [[[rng.choice(("-inf", rng.randint(-4, 4))) for _ in range(5)] for _ in range(4)]
         for _ in "ab"]
        for _ in range(30)
    ]
    pairs.append([_int_rows(m) for m in running_example])
    fraction_builds.clear()  # to_rows built the running example's Fraction view
    cells = 0
    for rows_a, rows_b in pairs:
        cells += len(solve(Matrix(rows_a), Matrix(rows_b), collect_stats=True).cells)
    assert fraction_builds == []
    assert cells >= 10, cells


def _int_rows(matrix):
    """An integral matrix as rows of ints and '-inf' tokens."""
    return [["-inf" if v is NEG_INF else int(v) for v in row] for row in matrix.to_rows()]


# Bad entries as as_scalar rejects them: bools, a float, None, bad tokens
# and an oversized token.
_BAD_ENTRIES = (True, False, 0.5, None, "x", "1/0", "1" * (MAX_TOKEN_DIGITS + 1), "1e999")
_TOKENS = ("3", "-7/2", "0.25", "-inf", " 4 ", "+5", "1e2", "-oo", "12/8", "-0")


def _any_entry(rng):
    pick = rng.randrange(4)
    if pick == 0:
        return rng.randint(-9, 9)
    if pick == 1:
        return NEG_INF
    if pick == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.choice(_TOKENS)


def test_to_ints_reads_every_vector_as_as_scalar_does():
    """_to_ints against as_scalar, entry by entry: the same ints and unit, or the same error."""
    rng = random.Random(2800)
    valid = invalid = 0
    for _ in range(3000):
        n = rng.randint(1, 7)
        lead = rng.randint(0, n)
        xs = [rng.choice([rng.randint(-9, 9), NEG_INF]) for _ in range(lead)]
        xs += [_any_entry(rng) for _ in range(n - lead)]
        if lead < n and rng.random() < 0.5:
            for _ in range(rng.randint(1, 2)):
                xs[rng.randrange(lead, n)] = rng.choice(_BAD_ENTRIES)
        unit = rng.choice([1, 1, 2, 6])
        outcomes = [result_of(as_scalar, v) for v in xs]
        first_bad = next((o for o in outcomes if o[0] == "raised"), None)
        if first_bad is None:
            valid += 1
            scalars = [o[2] for o in outcomes]
            ref = ref_unit(scalars + [Fraction(1, unit)])
            ints = [None if s is NEG_INF else s.numerator * (ref // s.denominator) for s in scalars]
            got = _to_ints(xs, unit)
            assert got == (ints, ref), xs
            assert all(type(v) is int for v in got[0] if v is not None)
            continue
        invalid += 1
        assert result_of(_to_ints, xs, unit) == first_bad, xs
        # every entry is read before any shape is compared
        wider = Matrix([[0] * (n + 1)])
        assert result_of(Matrix, [xs, [0] * (n + 1)]) == first_bad, xs
        cell = make_cell(n + 1, [(v, v, 0) for v in range(1, n + 2)], [])
        assert result_of(cell_membership, cell, xs) == first_bad, xs
        assert result_of(verify_solution, wider, wider, xs) == first_bad, xs
        assert result_of(verify_solution, wider, Matrix([[0] * n]), xs)[1] is DimensionMismatch
    assert valid >= 1000 and invalid >= 1000, (valid, invalid)
