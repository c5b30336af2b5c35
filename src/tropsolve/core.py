"""Exact scalar and matrix arithmetic for the max-plus (tropical) semiring.

Scalars are exact rationals extended with one element, ``-inf`` (the
additive neutral element, absorbing for tropical multiplication).  There is
no ``+inf``: every quantity the solver builds is a rational or ``-inf``.
No floating point appears anywhere: the solver branches on exact equalities,
which rounding would corrupt.  All values are immutable and every operation
is pure.

The number format is decided here, once.  A public number is an int when
it is integral, a Fraction otherwise, and NEG_INF for -inf.  as_scalar is
the one reader of a value that comes in (a float, a bool or any other type
raises TypeError, a bad token ValueError), and unscaled the one writer of
a value that goes out, from an int over a unit (None for -inf).  No other
module builds a Fraction: as_scalar reads a plain ASCII integer token as an
int at once, so an integer instance is parsed without building one.

A Matrix keeps its entries as ints over one unit, None for -inf, and the
solver, the bridges and the oracle compute on those ints.  _to_ints is the
one reader of a vector: it reads a sequence of numbers as ints over a
unit, and a vector of ints and -inf in one pass without a ratio.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Sequence, Union


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

    def __reduce__(self):  # every pickle protocol unpickles to the one instance
        return NegInfinity, ()

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

Scalar = Union[int, Fraction, NegInfinity]


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
    """value as a public number: an int when integral, a Fraction otherwise, or -inf.

    Reads ints, Fractions and number strings ('3', '-7/2', '0.25', '-inf').
    Floats are rejected: they are not exact.  So are bools, other types,
    and number strings beyond MAX_TOKEN_DIGITS, before any Fraction is built.
    """
    # the exact types first: a failed isinstance against Fraction (an ABC) is slow
    if value.__class__ is int or value is NEG_INF:
        return value
    if isinstance(value, str):
        text = value.strip()
        if text in ("-inf", "-oo"):
            return NEG_INF
        # a plain ASCII integer literal reads as an int, at the same bound
        digits = text[1:] if text[:1] in ("+", "-") else text
        if digits.isdigit() and digits.isascii() and len(digits) <= MAX_TOKEN_DIGITS:
            return int(text)
        _check_token_size(text)
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a tropical scalar token: {value!r}") from exc
    elif isinstance(value, bool):
        raise TypeError("bool is not a tropical scalar")
    elif isinstance(value, int):
        return value
    elif isinstance(value, float):
        raise TypeError("floats are not exact; pass a string or Fraction")
    elif not isinstance(value, Fraction):
        raise TypeError(f"cannot coerce {type(value).__name__} to a tropical scalar")
    return value.numerator if value.denominator == 1 else value


def unscaled(t: int | None, unit: int) -> Scalar:
    """t / unit as a public number: an int when integral, a Fraction otherwise, -inf for None."""
    if t is None:
        return NEG_INF
    return Fraction(t, unit) if t % unit else t // unit


class Matrix:
    """Dense, immutable matrix over tropical scalars.

    ints[i][j] is the entry times unit (None for -inf), where unit is the
    lcm of the entries' reduced denominators, so equal matrices have equal
    (cols, unit, ints).  Indexing, row and to_rows give the entries as
    public numbers (see unscaled).

    Zero-row matrices are permitted (they arise from block constructions with
    no constraints) but must state their column count explicitly.
    """

    __slots__ = ("rows", "cols", "unit", "ints")

    def __init__(self, data: Sequence[Sequence], cols: int | None = None):
        grid = list(map(list, data))
        flat, unit = _to_ints([v for row in grid for v in row])
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
        self._set(cols, unit, tuple(tuple(flat[k : k + cols]) for k in range(0, len(flat), cols)))

    @classmethod
    def _of_ints(cls, ints: Sequence[Sequence[int | None]], unit: int, cols: int) -> "Matrix":
        """The matrix of int rows over unit, in its canonical unit (unchecked)."""
        g = math.gcd(unit, *(v for row in ints for v in row if v is not None))
        if g > 1:
            unit //= g
            ints = [[None if v is None else v // g for v in row] for row in ints]
        out = object.__new__(cls)
        out._set(cols, unit, tuple(tuple(row) for row in ints))
        return out

    def _set(self, cols: int, unit: int, ints: tuple) -> None:
        object.__setattr__(self, "rows", len(ints))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "ints", ints)

    def in_unit(self, unit: int) -> tuple[tuple[int | None, ...], ...]:
        """The entries times unit, None for -inf; unit is a multiple of self.unit."""
        if unit == self.unit:
            return self.ints
        f = unit // self.unit
        return tuple(tuple([None if v is None else v * f for v in row]) for row in self.ints)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Matrix is immutable")

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return unscaled(self.ints[i][j], self.unit)

    def row(self, i: int) -> tuple[Scalar, ...]:
        return tuple([unscaled(v, self.unit) for v in self.ints[i]])

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.cols, self.unit, self.ints) == (other.cols, other.unit, other.ints)

    def __hash__(self) -> int:
        return hash((self.cols, self.unit, self.ints))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(repr(v) for v in row) for row in self.to_rows())
        return f"Matrix[{self.rows}x{self.cols}]({body})"


def _to_ints(values: Sequence, unit: int = 1) -> tuple[list[int | None], int]:
    """The values as ints over one unit, None for -inf, and that unit.

    The unit is the lcm of unit and the values' reduced denominators.  Ints
    and -inf are read in one pass, times unit; from the first other value
    on, each value is read by as_scalar (a float or bool raises TypeError, a
    bad token ValueError) as a (numerator, denominator) pair, and the ints
    read so far are rescaled to the final unit.  So a vector of ints builds
    no Fraction and no pair.
    """
    out: list[int | None] = []
    rest = iter(values)
    for v in rest:
        if v.__class__ is int:
            out.append(v * unit)
        elif v is NEG_INF:
            out.append(None)
        else:
            break
    else:
        return out, unit
    ratios = []
    for v in chain((v,), rest):
        if v.__class__ is not Fraction and v is not NEG_INF and v.__class__ is not int:
            v = as_scalar(v)
        ratios.append(None if v is NEG_INF else v.as_integer_ratio())
    lcm = math.lcm(unit, *{r[1] for r in ratios if r is not None})
    if lcm != unit:
        f = lcm // unit
        out = [None if v is None else v * f for v in out]
    out.extend(None if r is None else r[0] * (lcm // r[1]) for r in ratios)
    return out, lcm


def row_maxima(matrices: Sequence[Matrix], x: Sequence) -> tuple[list[int | None], int]:
    """Every row's max_j (m_ij + x_j), for the matrices in turn, as ints.

    Returns (maxima, scale): the maxima in units of 1/scale, None for -inf,
    where scale is the lcm of the matrices' units and the denominators of
    x.  x's entries are coerced first, then its length is checked against
    the columns of the matrices, which must all agree.
    """
    xs, scale = _to_ints(x, math.lcm(*{m.unit for m in matrices}))
    cols = matrices[0].cols
    if len(xs) != cols:
        raise DimensionMismatch(f"vector of length {len(xs)} against {cols} columns")
    live = [(j, xv) for j, xv in enumerate(xs) if xv is not None]
    maxima: list[int | None] = []
    for matrix in matrices:
        for row in matrix.in_unit(scale):
            best = None
            for j, xv in live:
                v = row[j]
                if v is not None:
                    t = v + xv
                    if best is None or t > best:
                        best = t
            maxima.append(best)
    return maxima, scale


def matvec_maxplus(a: Matrix, x: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Max-plus product A (x) x: component i is max_j (a_ij + x_j)."""
    maxima, scale = row_maxima((a,), x)
    return tuple([unscaled(t, scale) for t in maxima])
