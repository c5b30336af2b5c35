"""Shared fixtures: the worked examples, transcribed with 1-based indices.

Helpers convert the human-readable 1-based transcription into the package's
0-based convention so tests read like the source material.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from tropsolve import NEG_INF, Matrix
from tropsolve.cells import SolutionCell
from tropsolve.preprocess import row_masks
from tropsolve.winseq import classify_row

NI = "-inf"

# Entries over the denominators 2, 3 and 4: exact scaling runs with scale 12.
FRACTIONAL_VALUES = (
    Fraction(1, 2),
    Fraction(-3, 2),
    Fraction(2, 3),
    Fraction(7, 4),
    NEG_INF,
    Fraction(0),
    Fraction(2),
)


def random_rows(rng, m, n):
    return [[rng.choice(FRACTIONAL_VALUES) for _ in range(n)] for _ in range(m)]


def planted_rows(rng, m, n):
    """Random rows of A and B, one entry per row raised so that a drawn x solves them."""
    a, b = random_rows(rng, m, n), random_rows(rng, m, n)
    x = [rng.choice([v for v in FRACTIONAL_VALUES if v is not NEG_INF]) for _ in range(n)]
    for i in range(m):
        k = rng.randrange(n)
        sides = [a[i], b[i]]
        rng.shuffle(sides)
        low, high = sides
        tops = [v + x[j] for j, v in enumerate(high) if v is not NEG_INF]
        if not tops:
            high[k] = -x[k]
            tops = [Fraction(0)]
        low_tops = [v + x[j] for j, v in enumerate(low) if v is not NEG_INF]
        if not low_tops or max(low_tops) < max(tops):
            low[k] = max(tops) - x[k]
        else:
            high[k] = max(low_tops) - x[k]
    return a, b


def ref_unit(values):
    """The lcm of the denominators of the finite values (1 if none).

    The reference scaling of the tests: it reads Fraction views and shares
    no code with the package's own scaling.
    """
    return math.lcm(*(Fraction(v).denominator for v in values if v is not NEG_INF))


def ref_scaled(value, unit):
    """value * unit as an int, None for -inf; unit is a multiple of value's denominator."""
    if value is NEG_INF:
        return None
    product = Fraction(value) * unit
    assert product.denominator == 1
    return product.numerator


def ref_scaled_rows(matrix, unit):
    """The matrix's to_rows() view times unit, as int rows with None for -inf."""
    return [[ref_scaled(v, unit) for v in row] for row in matrix.to_rows()]


def ref_public(value):
    """value as the package hands numbers out: an int when integral, a Fraction otherwise.

    -inf stays NEG_INF.  The reference of the number contract, built from a
    Fraction view and sharing no code with the package's writer.
    """
    if value is NEG_INF:
        return NEG_INF
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def typed(values):
    """The entries with their types, so that 1 and Fraction(1) differ."""
    return [(v, type(v)) for v in values]


def ref_oplus(a, b):
    """Tropical addition of two scalars: the maximum, -inf neutral."""
    return a if a >= b else b


def ref_odot(a, b):
    """Tropical multiplication of two scalars: the sum, -inf absorbing."""
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    return a + b


def dimension_bound(sequence, num_vars):
    """Bound on the cell dimension: num_vars - |linked columns| + |classes|.

    Columns sharing a pair are linked, and linking two classes of columns
    removes one degree of freedom, so the bound is num_vars minus the number
    of pairs that join two classes.  The reference for the bound that
    cells._solve_sequence counts off its union-find.
    """
    parent = {c: c for pair in sequence for c in pair}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    bound = num_vars
    for p, q in sequence:
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rp] = rq
            bound -= 1
    return bound


def omega_assignment(solved):
    """(omega, assignment, residue) of a cells._solve_sequence result.

    omega is the set of variables whose representative is dead, the
    assignment the union-find frozen by its snapshot: the form the
    sequence's result had before it returned the union-find itself.
    """
    uf, dead, residue, _ = solved
    rep = uf.representative
    return {v for v in range(len(rep)) if rep[v] in dead}, uf.snapshot(), residue


def scaled_rows(matrix):
    """The matrix entries as exact ints over their common denominator, None for -inf."""
    return ref_scaled_rows(matrix, ref_unit(v for row in matrix.to_rows() for v in row))


def pair_scale(a, b):
    """The lcm of the denominators of both matrices: the unit solve works in."""
    return ref_unit(v for m in (a, b) for row in m.to_rows() for v in row)


def scaled_pair(a, b):
    """Both matrices as int rows in one unit (None for -inf), as solve scales them.

    row_masks takes these rows; scaling each matrix alone (scaled_rows)
    would give the two sides different units.
    """
    scale = pair_scale(a, b)
    return ref_scaled_rows(a, scale), ref_scaled_rows(b, scale)


def pair_masks(a, b):
    """The RowMasks of a Matrix pair, in the unit solve scales it to."""
    return row_masks(*scaled_pair(a, b), a.cols)


def row_classes(a, b):
    """The RowClassification of every row of a Matrix pair, all columns live."""
    masks = pair_masks(a, b)
    return [classify_row(masks, i, (1 << a.cols) - 1) for i in range(a.rows)]


def col_mask(cols):
    """The int column bitmask of an iterable of column indices."""
    mask = 0
    for j in cols:
        mask |= 1 << j
    return mask


def result_of(fn, *args):
    """("ok", type, value) of fn(*args), or ("raised", type, message) of what it raised.

    Two callables agree on some arguments when their results are equal:
    equal values of one type, or one exception type with one message.
    """
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return ("raised", type(exc), str(exc))
    return ("ok", type(value), value)


OUTCOMES = ("reduced", "unconstrained", "trivial")


def outcome(red):
    """What a ReducedInstance leaves to solve, one of OUTCOMES.

    Kept rows leave a reduced instance; without rows the free columns, if
    any, make up the unconstrained cell, and with none the all--inf point
    is the only solution.
    """
    if red.rows:
        return "reduced"
    return "unconstrained" if red.free else "trivial"


def seq0(pairs):
    """1-based win sequence -> 0-based."""
    return tuple((p - 1, q - 1) for p, q in pairs)


def seq1(pairs):
    """0-based win sequence -> 1-based (for readable assertions)."""
    return tuple((p + 1, q + 1) for p, q in pairs)


def make_cell(num_vars, assignments, constraints, neg_inf=(), win_sequence=()):
    """Reference cell from 1-based (var, param, offset) and (plus, minus, const).

    The numbers may be ints, strings or Fractions; the cell holds them as
    ints over the lcm of their denominators, as solve builds its cells.
    """
    assign = sorted((v - 1, p - 1, Fraction(o)) for v, p, o in assignments)
    cons = [(p - 1, m - 1, Fraction(c)) for p, m, c in constraints]
    scale = ref_unit([o for *_, o in assign] + [c for *_, c in cons])
    seq = seq0(win_sequence)
    return SolutionCell(
        win_sequence=seq,
        neg_inf=frozenset(v - 1 for v in neg_inf),
        scale=scale,
        assigned=tuple((v, p, ref_scaled(o, scale)) for v, p, o in assign),
        rows=tuple((p, m, ref_scaled(c, scale)) for p, m, c in cons),
        dimension_bound=dimension_bound(seq, num_vars),
        num_vars=num_vars,
    )


@pytest.fixture
def fraction_builds(monkeypatch):
    """The list of every Fraction built from here on, as its constructor arguments."""
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    Fraction(1, 3)
    assert built == [(1, 3)]  # the wrapper sees every construction
    built.clear()
    return built


@pytest.fixture
def running_example():
    a = Matrix([[3, 7, -1, NI], [6, 7, NI, NI], [1, 0, 1, NI]])
    b = Matrix([[NI, NI, NI, 8], [NI, NI, 5, 1], [1, 0, 1, 2]])
    return a, b


@pytest.fixture
def running_example_m():
    return Matrix([[3, 7, -1, 8], [6, 7, 5, 1], [1, 0, 1, 2]])


@pytest.fixture
def empty_case_example():
    a = Matrix([[3, 7, -1, NI], [6, 7, NI, NI], [-9, 0, 0, NI]])
    b = Matrix([[NI, NI, NI, 8], [NI, NI, 5, 1], [-9, 0, NI, -4]])
    return a, b


@pytest.fixture
def three_by_three_example():
    a = Matrix([[1, 3, NI], [5, 0, NI], [NI, 3, NI]])
    b = Matrix([[NI, NI, 3], [5, 0, 2], [3, NI, 2]])
    return a, b


@pytest.fixture
def two_by_seven_example():
    a = Matrix([[NI, NI, NI, 0, 4, 2, 6], [NI, 5, 6, NI, NI, NI, 2]])
    b = Matrix([[0, 1, 5, NI, NI, NI, NI], [3, NI, NI, 0, 2, 4, NI]])
    return a, b


def non_real_example(m21=2, m22=3):
    """The 2x3 instance whose maximum matrix has a -inf entry."""
    a = Matrix([[1, NI, NI], [m21, m22, 0]])
    b = Matrix([[NI, 1, NI], [NI, NI, 0]])
    return a, b


# The two cells displayed for the running example, as reference point sets.
def running_reference_cells():
    cell1 = make_cell(
        4,
        assignments=[(1, 4, 5), (2, 2, 0), (3, 4, 6), (4, 4, 0)],
        constraints=[(2, 4, -1)],
        win_sequence=[(1, 4), (1, 3), (3, 3)],
    )
    cell2 = make_cell(
        4,
        assignments=[(1, 3, -1), (2, 4, 1), (3, 3, 0), (4, 4, 0)],
        constraints=[(3, 4, -6), (4, 3, 3)],
        win_sequence=[(2, 4), (1, 3), (3, 3)],
    )
    return cell1, cell2


# The eight cells displayed for the 2x7 example, keyed by win sequence.
def two_by_seven_reference_cells():
    free = [(5, 5, 0), (6, 6, 0), (7, 7, 0)]
    data = {
        ((4, 1), (2, 1)): (
            [(1, 4, 0), (2, 4, -2), (3, 3, 0), (4, 4, 0)] + free,
            [(3, 4, 5), (5, 4, 4), (6, 4, 2), (7, 4, 6)],
        ),
        ((4, 3), (2, 1)): (
            [(1, 2, 2), (2, 2, 0), (3, 4, -5), (4, 4, 0)] + free,
            [(2, 4, 2), (4, 2, -4), (5, 2, -3), (6, 2, -1), (7, 2, -3),
             (5, 4, 4), (6, 4, 2), (7, 4, 6)],
        ),
        ((5, 1), (2, 1)): (
            [(1, 5, 4), (2, 5, 2), (3, 3, 0), (4, 4, 0)] + free,
            [(3, 5, 1), (4, 5, -4), (6, 5, -2), (7, 5, 2)],
        ),
        ((5, 3), (2, 1)): (
            [(1, 2, 2), (2, 2, 0), (3, 5, -1), (4, 4, 0)] + free,
            [(2, 5, -2), (5, 2, 0), (4, 5, -4), (4, 2, -5), (6, 2, -1),
             (7, 2, -3), (6, 5, -2), (7, 5, 2)],
        ),
        ((6, 1), (2, 1)): (
            [(1, 6, 2), (2, 6, 0), (3, 3, 0), (4, 4, 0)] + free,
            [(3, 6, 3), (4, 6, -2), (5, 6, 2), (7, 6, 4)],
        ),
        ((6, 3), (2, 1)): (
            [(1, 2, 2), (2, 2, 0), (3, 6, -3), (4, 4, 0)] + free,
            [(2, 6, 0), (6, 2, -1), (4, 6, -2), (5, 6, 2), (4, 2, -5),
             (5, 2, -3), (7, 2, -3), (7, 6, 4)],
        ),
        ((7, 1), (2, 1)): (
            [(1, 7, 6), (2, 7, 4), (3, 3, 0), (4, 4, 0)] + free,
            [(3, 7, -1), (4, 7, -6), (5, 7, -2), (6, 7, -4)],
        ),
        ((7, 3), (2, 1)): (
            [(1, 2, 2), (2, 2, 0), (3, 7, 1), (4, 4, 0)] + free,
            [(2, 7, -4), (7, 2, 2), (4, 7, -6), (5, 7, -2), (6, 7, -4),
             (4, 2, -5), (5, 2, -3), (6, 2, -1)],
        ),
    }
    return {
        ws: make_cell(7, assignments, constraints, win_sequence=list(ws))
        for ws, (assignments, constraints) in data.items()
    }
