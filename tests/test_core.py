from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropsolve import NEG_INF, Matrix, matvec_maxplus
from tropsolve.core import (
    MAX_TOKEN_DIGITS,
    DimensionMismatch,
    TokenTooLarge,
    as_scalar,
    common_denominator,
    odot,
    oplus,
    scaled_entries,
)

rationals = st.fractions(max_denominator=50)
scalars = st.one_of(st.just(NEG_INF), rationals)


def test_scalar_ops_basic():
    assert oplus(Fraction(3), Fraction(7)) == 7 and odot(Fraction(3), Fraction(7)) == 10


def test_scalar_ops_neg_inf_neutral_absorbing():
    assert oplus(NEG_INF, Fraction(5)) == 5
    assert odot(NEG_INF, Fraction(5)) is NEG_INF


def test_scalar_ops_zero_is_multiplicative_neutral():
    assert oplus(Fraction(0), Fraction(0)) == 0 and odot(Fraction(0), Fraction(0)) == 0


def test_total_order():
    assert NEG_INF < Fraction(-10**9) < Fraction(0)
    assert not NEG_INF < NEG_INF
    assert NEG_INF <= NEG_INF
    assert max(Fraction(3), NEG_INF) == 3
    assert min(Fraction(3), NEG_INF) is NEG_INF


def test_odot_extended_rules():
    assert odot(Fraction(2), NEG_INF) is NEG_INF
    assert odot(NEG_INF, NEG_INF) is NEG_INF
    assert odot(Fraction(-3, 2), Fraction(7, 2)) == 2


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
    for token in ("1e101", "1E-101", "1" * 101, "1/" + "3" * 100, "0." + "0" * 100):
        with pytest.raises(TokenTooLarge, match="MAX_TOKEN_DIGITS"):
            as_scalar(token)
    with pytest.raises(ValueError):
        as_scalar("1e5/3")  # malformed exponent: rejected by Fraction


@given(scalars)
def test_oplus_idempotent(a):
    assert oplus(a, a) == a


@given(scalars, scalars, scalars)
def test_oplus_associative(a, b, c):
    assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))


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
    scale = common_denominator(v for row in m.to_rows() for v in row)
    assert scale == 6
    assert scaled_entries(m, scale) == [[3, None, -4], [24, 5, 0]]
    assert common_denominator([NEG_INF]) == 1
