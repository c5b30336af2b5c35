"""One number format for every public value: an int when integral, a Fraction otherwise.

core.as_scalar reads every number that comes in and core.unscaled writes
every number that goes out, so each public API hands out an integral value
as an int, any other as a Fraction, and -inf as NEG_INF.  The test feeds
every such API mixed integral and non-integral data and checks each number
it returns against conftest.ref_public, which shares no code with the
package's writer; each API must show both kinds, so no API passes on one
kind alone.
"""

from __future__ import annotations

import random
from fractions import Fraction

from conftest import planted_rows, ref_public, typed
from tropsolve import NEG_INF, GridSpec, Matrix, grid_solutions, matvec_maxplus, sample_cell, solve
from tropsolve.cli import parse_instance
from tropsolve.core import as_scalar
from tropsolve.reductions import decide_eq_b, pin_variable, principal_solution


def _cells():
    """The cells of seeded pairs over the denominators 2, 3 and 4."""
    rng = random.Random(29)
    out = []
    for _ in range(12):
        a, b = planted_rows(rng, 2, 3)
        out += solve(Matrix(a), Matrix(b)).cells
    return out


def _returned():
    """API name -> every number the API returned on mixed data."""
    got: dict[str, list] = {}
    a = Matrix([[Fraction(1, 2), 3, NEG_INF], [2, Fraction(-3, 2), "0"]])
    got["Matrix[i, j]"] = [a[i, j] for i in range(a.rows) for j in range(a.cols)]
    got["Matrix.row"] = [v for i in range(a.rows) for v in a.row(i)]
    got["Matrix.to_rows"] = [v for row in a.to_rows() for v in row]
    got["matvec_maxplus"] = [
        v for x in ([0, Fraction(1, 2), 1], ["1/2", 0, NEG_INF], [1, "-3/2", 5])
        for v in matvec_maxplus(a, x)
    ]
    real = Matrix([[Fraction(1, 2), 3, 0], [2, Fraction(-3, 2), 1]])
    got["principal_solution"] = [
        v for b in ([1, 2], ["7/2", 0], [0, NEG_INF]) for v in principal_solution(real, b)
    ]
    got["decide_eq_b"] = list(decide_eq_b(real, (3, Fraction(5, 2))))
    cells = _cells()
    got["SolutionCell.assignments"] = [o for c in cells for _, o in c.assignments.values()]
    got["SolutionCell.constraints"] = [k.constant for c in cells for k in c.constraints]
    got["sample_cell"] = [v for c in cells for point in sample_cell(c, 6, seed=3) for v in point]
    pinned = [pc for c in cells for value in (0, "1/3", Fraction(4, 2))
              if (pc := pin_variable(c, min(c.assignments), value)) is not None]
    got["PinnedCell.pinned_value"] = [pc.pinned_value for pc in pinned]
    got["PinnedCell.sample"] = [v for pc in pinned for point in pc.sample(4, seed=5) for v in point]
    grid = GridSpec.of(["-1/2", "0", "1", Fraction(6, 4), "2/1"])
    got["GridSpec.values"] = list(grid.values)
    b = Matrix([[0, 1, Fraction(1, 2)], [1, 0, 2]])
    got["grid_solutions"] = [v for x in grid_solutions(real, b, grid) for v in x]
    got["as_scalar"] = [as_scalar(v) for v in (3, "3", "3/1", "1.5", Fraction(6, 2), Fraction(1, 2))]
    text = "problem: eqb\nm: 4\nn: 1\nA:\n0\n1\n2\n3\nb:\n1 3/2 2.0 -inf\n"
    got["parse_instance(...).vectors"] = list(parse_instance(text).vectors["b"])
    return got


def test_every_public_number_is_an_int_when_integral_and_a_fraction_otherwise():
    for api, values in _returned().items():
        assert typed(values) == typed(map(ref_public, values)), api
        kinds = {type(v) for v in values}
        assert {int, Fraction} <= kinds, (api, kinds)
