"""Exact scalar and matrix arithmetic for the max-plus (tropical) semiring.

Scalars are exact rationals extended with one element, ``-inf`` (the
additive neutral element, absorbing for tropical multiplication).  There is
no ``+inf``: every quantity the solver builds is a rational or ``-inf``.
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
    """An operation undefined on its arguments (e.g. residuation by a -inf entry)."""


class TokenTooLarge(TropicalError, ValueError):
    """A number token with more than MAX_TOKEN_DIGITS digits or exponent."""


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


def _comparable(value: object) -> bool:
    return isinstance(value, (Fraction, int, NegInfinity))


NEG_INF = NegInfinity()

Scalar = Union[Fraction, NegInfinity]


# A number token may carry at most this many digits, and a decimal
# exponent at most this magnitude, so that its numerator and denominator
# stay below 10**200: far from Python's 4300-digit int-to-str limit, and a
# token like '1e999999999' is refused before 10**999999999 is computed.
MAX_TOKEN_DIGITS = 100


def _check_token_size(text: str) -> None:
    digits = sum(ch.isdigit() for ch in text)
    exponent = text.lower().partition("e")[2]
    try:
        too_large = digits > MAX_TOKEN_DIGITS or abs(int(exponent or 0)) > MAX_TOKEN_DIGITS
    except ValueError:
        return  # a malformed exponent: Fraction rejects the token
    if too_large:
        shown = text if len(text) <= 20 else text[:20] + "..."
        raise TokenTooLarge(
            f"number token {shown!r} is too large: more than {MAX_TOKEN_DIGITS} "
            f"digits or a decimal exponent beyond {MAX_TOKEN_DIGITS} (MAX_TOKEN_DIGITS)"
        )


def as_scalar(value) -> Scalar:
    """Coerce ints, Fractions and strings ('3', '-7/2', '0.25', '-inf').

    Floats are rejected: they are not exact.  So are number strings beyond
    MAX_TOKEN_DIGITS, before any Fraction is built.
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
        _check_token_size(text)
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


def odot(a: Scalar, b: Scalar) -> Scalar:
    """Tropical multiplication: classical addition, -inf absorbing."""
    if isinstance(a, NegInfinity) or isinstance(b, NegInfinity):
        return NEG_INF
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


def _ratios(x: Sequence) -> list[tuple[int, int] | None]:
    """x's entries as (numerator, denominator), None for -inf.

    Fractions and -inf are read as they are; every other entry goes through
    as_scalar, so a float or bool raises TypeError and a bad token ValueError.
    """
    out: list[tuple[int, int] | None] = []
    for v in x:
        if v.__class__ is not Fraction and v is not NEG_INF:
            v = as_scalar(v)
        out.append(None if v is NEG_INF else v.as_integer_ratio())
    return out


def row_maxima(matrices: Sequence[Matrix], x: Sequence) -> tuple[list[int | None], int]:
    """Every row's max_j (m_ij + x_j), for the matrices in turn, as ints.

    Returns (maxima, scale): the maxima in units of 1/scale, None for -inf,
    where scale is the lcm of the denominators of every term a_ij + x_j with
    both parts finite.  x's entries are coerced first, then its length is
    checked against the columns of the matrices, which must all agree.
    """
    parts = _ratios(x)
    cols = matrices[0].cols
    if len(parts) != cols:
        raise DimensionMismatch(f"vector of length {len(parts)} against {cols} columns")
    scale = 1
    live: list[tuple[int, int, int]] = []  # (j, numerator, denominator) of finite x_j
    for j, part in enumerate(parts):
        if part is not None:
            live.append((j, *part))
            if scale % part[1]:
                scale = math.lcm(scale, part[1])
    sides: list[list[tuple[int, int, int, int]]] = []  # the rows of every matrix
    for matrix in matrices:
        for i in range(matrix.rows):
            row = matrix.row(i)
            terms = []
            for j, xn, xd in live:
                v = row[j]
                if v is not NEG_INF:
                    num, den = v.as_integer_ratio()
                    if scale % den:
                        scale = math.lcm(scale, den)
                    terms.append((num, den, xn, xd))
            sides.append(terms)
    maxima: list[int | None] = []
    for terms in sides:
        best = None
        for num, den, xn, xd in terms:
            t = num * (scale // den) + xn * (scale // xd)
            if best is None or t > best:
                best = t
        maxima.append(best)
    return maxima, scale


def matvec_maxplus(a: Matrix, x: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Max-plus product A (x) x: component i is max_j (a_ij + x_j)."""
    maxima, scale = row_maxima((a,), x)
    return tuple(NEG_INF if t is None else Fraction(t, scale) for t in maxima)
