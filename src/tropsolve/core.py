"""Exact scalar and matrix arithmetic for the max-plus (tropical) semiring.

Scalars are exact rationals extended with ``-inf`` (the additive neutral
element) and, for interval endpoints produced by entry differences, ``+inf``.
No floating point appears anywhere: the solver branches on exact equalities,
which rounding would corrupt.  All values are immutable and every operation
is pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union


class TropicalError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(TropicalError):
    """Operands have incompatible shapes."""


class UndefinedOperation(TropicalError):
    """An arithmetic case left undefined (e.g. combining +inf with -inf)."""


class NegInfinity:
    """The tropical additive neutral element; strictly below every rational."""

    _instance: "NegInfinity | None" = None
    __slots__ = ()

    def __new__(cls) -> "NegInfinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "-inf"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash(("tropsolve", "-inf"))

    def __lt__(self, other):
        if _comparable(other):
            return not isinstance(other, NegInfinity)
        return NotImplemented

    def __le__(self, other):
        if _comparable(other):
            return True
        return NotImplemented

    def __gt__(self, other):
        if _comparable(other):
            return False
        return NotImplemented

    def __ge__(self, other):
        if _comparable(other):
            return isinstance(other, NegInfinity)
        return NotImplemented


class PosInfinity:
    """Upper interval endpoint; strictly above every rational.

    Never stored in a matrix: it only arises from entry differences where
    the subtrahend is -inf.
    """

    _instance: "PosInfinity | None" = None
    __slots__ = ()

    def __new__(cls) -> "PosInfinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "+inf"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash(("tropsolve", "+inf"))

    def __lt__(self, other):
        if _comparable(other):
            return False
        return NotImplemented

    def __le__(self, other):
        if _comparable(other):
            return isinstance(other, PosInfinity)
        return NotImplemented

    def __gt__(self, other):
        if _comparable(other):
            return not isinstance(other, PosInfinity)
        return NotImplemented

    def __ge__(self, other):
        if _comparable(other):
            return True
        return NotImplemented


def _comparable(value: object) -> bool:
    return isinstance(value, (Fraction, int, NegInfinity, PosInfinity))


NEG_INF = NegInfinity()
POS_INF = PosInfinity()

Scalar = Union[Fraction, NegInfinity]
ExtendedScalar = Union[Fraction, NegInfinity, PosInfinity]


def as_scalar(value) -> Scalar:
    """Coerce ints, Fractions and strings ('3', '-7/2', '0.25', '-inf').

    Floats are rejected: they are not exact.
    """
    if isinstance(value, (NegInfinity, Fraction)):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a tropical scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if text in ("-inf", "-oo"):
            return NEG_INF
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a tropical scalar token: {value!r}") from exc
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a string or Fraction")
    raise TypeError(f"cannot coerce {type(value).__name__} to a tropical scalar")


def common_denominator(values: Iterable) -> int:
    """Lcm of the denominators of the rationals among values (1 if none).

    Multiplying by it turns every rational value into an integer, exactly.
    """
    return math.lcm(*(v.denominator for v in values if isinstance(v, Fraction)))


def scaled(value: Scalar, scale: int) -> int | None:
    """value * scale as an exact int, with None standing for -inf.

    scale must be a multiple of value's denominator (see common_denominator).
    """
    if isinstance(value, NegInfinity):
        return None
    return value.numerator * (scale // value.denominator)


def scaled_entries(matrix: Matrix, scale: int) -> list[list[int | None]]:
    """The matrix entries times scale, as exact ints, with None for -inf."""
    return [[scaled(v, scale) for v in row] for row in matrix.to_rows()]


def as_vector(values: Sequence) -> tuple[Scalar, ...]:
    return tuple(as_scalar(v) for v in values)


def oplus(a: Scalar, b: Scalar) -> Scalar:
    """Tropical addition: the maximum."""
    return a if a >= b else b


def odot(a: ExtendedScalar, b: ExtendedScalar) -> ExtendedScalar:
    """Tropical multiplication: classical addition, -inf absorbing.

    +inf with -inf is rejected rather than given a silent convention.
    """
    a_neg = isinstance(a, NegInfinity)
    b_neg = isinstance(b, NegInfinity)
    a_pos = isinstance(a, PosInfinity)
    b_pos = isinstance(b, PosInfinity)
    if (a_pos and b_neg) or (a_neg and b_pos):
        raise UndefinedOperation("(+inf) (x) (-inf) is undefined")
    if a_neg or b_neg:
        return NEG_INF
    if a_pos or b_pos:
        return POS_INF
    return a + b


class Matrix:
    """Dense, immutable matrix over tropical scalars.

    Zero-row matrices are permitted (they arise from block constructions with
    no constraints) but must state their column count explicitly.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Sequence[Sequence], cols: int | None = None):
        grid = tuple(tuple(as_scalar(v) for v in row) for row in data)
        if grid:
            widths = {len(row) for row in grid}
            if len(widths) != 1:
                raise DimensionMismatch("ragged rows")
            found = widths.pop()
            if cols is not None and cols != found:
                raise DimensionMismatch(f"cols={cols} but rows have {found} entries")
            cols = found
        elif cols is None:
            raise DimensionMismatch("a zero-row matrix needs an explicit column count")
        if cols < 1:
            raise DimensionMismatch("matrices need at least one column")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", grid)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Matrix is immutable")

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self._data[i]

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(r[j] for r in self._data)

    def is_real(self) -> bool:
        """True when every entry is a rational (no -inf anywhere)."""
        return all(isinstance(v, Fraction) for row in self._data for v in row)

    def to_rows(self) -> list[list[Scalar]]:
        return [list(row) for row in self._data]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.cols == other.cols and self._data == other._data

    def __hash__(self) -> int:
        return hash((self.cols, self._data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(repr(v) for v in row) for row in self._data)
        return f"Matrix[{self.rows}x{self.cols}]({body})"


def select_columns(matrix: Matrix, cols: Sequence[int]) -> Matrix:
    """New matrix keeping the given columns, in the given order."""
    if not cols:
        raise DimensionMismatch("cannot select zero columns")
    return Matrix(
        [[matrix[i, j] for j in cols] for i in range(matrix.rows)], cols=len(cols)
    )


def matvec_maxplus(a: Matrix, x: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Max-plus product A (x) x: component i is max_j (a_ij + x_j)."""
    xs = as_vector(x)
    if len(xs) != a.cols:
        raise DimensionMismatch(f"vector of length {len(xs)} against {a.cols} columns")
    out = []
    for i in range(a.rows):
        row = a.row(i)
        best: Scalar = NEG_INF
        for j in range(a.cols):
            term = odot(row[j], xs[j])
            if term > best:
                best = term
        out.append(best)
    return tuple(out)


def matvec_minplus(a: Matrix, x: Sequence) -> tuple[ExtendedScalar, ...]:
    """Min-plus product: component i is min_j (a_ij + x_j), extended rules."""
    xs = tuple(x)
    if len(xs) != a.cols:
        raise DimensionMismatch(f"vector of length {len(xs)} against {a.cols} columns")
    out = []
    for i in range(a.rows):
        row = a.row(i)
        best: ExtendedScalar = POS_INF
        for j in range(a.cols):
            term = odot(row[j], xs[j])
            if term < best:
                best = term
        out.append(best)
    return tuple(out)


def conjugate(a: Matrix) -> Matrix:
    """Negated transpose (-a_ji); defined for real matrices only."""
    if not a.is_real():
        raise UndefinedOperation("conjugate requires a real matrix")
    return Matrix(
        [[-a[i, j] for i in range(a.rows)] for j in range(a.cols)], cols=a.rows
    )


def dif(m: Matrix, j: int, l: int, k: int) -> ExtendedScalar:
    """Difference m_kj - m_kl of two entries in row k, extended to +/-inf.

    Rational when m_kl is rational (the result is -inf if m_kj is), +inf when
    m_kj is rational and m_kl is -inf.  Both entries -inf is undetermined and
    signals a caller bug.
    """
    mj = m[k, j]
    ml = m[k, l]
    if isinstance(ml, NegInfinity):
        if isinstance(mj, NegInfinity):
            raise UndefinedOperation(f"dif undetermined at row {k}: both entries -inf")
        return POS_INF
    if isinstance(mj, NegInfinity):
        return NEG_INF
    return mj - ml
