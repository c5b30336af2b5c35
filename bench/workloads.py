"""Seeded workloads: instance generators, the timed operation, and its checks.

Generators build plain Python data from a ``random.Random`` seeded with the
workload name and ``--seed``; the same seed always gives the same instances.
The program sees only those instances (matrices, or instance text for the
CLI); planted solutions stay inside the benchmark and are used by the checks.

Every workload is a fixed pool of instances. ``run.py`` solves them in a
closed loop, one after another, and checks each output against the
program's own exactness predicates.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

NI = None  # -inf in generated data

# Sampled points per cell for the soundness check; the first sample_cell
# point is always the all--inf vector, so this is one random point per cell.
SAMPLES_PER_CELL = 2

CHECK_GRID = "grid=-3,-1,0,1,3"


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int  # instances per run; one pass fits well inside --seconds
    trace_instances: int  # prefix of the pool that the traced run replays
    generate: object  # (rng, count) -> list of raw instances
    kind: str  # "solver" or "cli"


@dataclass
class Instance:
    data: object  # (A, B) Matrix pair, or instance text for the CLI
    planted: tuple | None = None  # a known solution, for the completeness gate


# ---------------------------------------------------------------- generation


def _entry(rng: random.Random, p_inf: float, lo: int, hi: int):
    return NI if rng.random() < p_inf else rng.randint(lo, hi)


def _matrix(rng, rows, cols, p_inf, lo, hi):
    return [[_entry(rng, p_inf, lo, hi) for _ in range(cols)] for _ in range(rows)]


def _side_value(row, x):
    terms = [v + xv for v, xv in zip(row, x) if v is not NI and xv is not NI]
    return max(terms) if terms else NI


def _raw(rng, rows, cols, p_inf, span):
    return _matrix(rng, rows, cols, p_inf, -span, span), _matrix(rng, rows, cols, p_inf, -span, span)


def _planted(rng, rows, cols, p_inf, span):
    """A raw pair, then one losing-side entry per row raised so x solves it."""
    a, b = _raw(rng, rows, cols, p_inf, span)
    x = [rng.randint(-span, span) for _ in range(cols)]
    for i in range(rows):
        left, right = _side_value(a[i], x), _side_value(b[i], x)
        if left == right:
            continue
        loser, target = (a, right) if left is NI or (right is not NI and left < right) else (b, left)
        j = rng.randrange(cols)
        loser[i][j] = target - x[j]
    if any(_side_value(ra, x) != _side_value(rb, x) for ra, rb in zip(a, b)):
        raise RuntimeError("planted vector does not solve its instance")
    return a, b, tuple(x)


def gen_search(rng, count):
    # Why: random 7x7 pairs, entries in [-50, 50], each -inf with probability
    # 0.3, alternating pairs with a planted solution and raw pairs.
    # Enumeration of win sequences does about 80% of the solve time and most
    # sequences collapse to the trivial point, so the compatibility table,
    # forward checking and early collapse detection must show here.
    # (7x7 rather than 7x8: at 7x8 too few instances fit in a run for the
    # median and tail to be steady across seeds; see NOTES.md.)
    return [
        _planted(rng, 7, 7, 0.3, 50) if k % 2 == 0 else (*_raw(rng, 7, 7, 0.3, 50), None)
        for k in range(count)
    ]


def gen_cells_wide(rng, count):
    # Why: planted 3x8 pairs with all entries finite.  Few rows keep the
    # search cheap; many columns give every win sequence a large inequality
    # system, tightened with exact Fractions.  Most sequences yield a cell,
    # so the cell stage (union-find, propagation, substitution,
    # sub-specialization, assembly) does most of the work and skipping
    # collapsed sequences should gain nothing.  Entries lie in [-50, 50].
    # (3x8 rather than 3x9 so that about 400 instances fit in a run.)
    return [_planted(rng, 3, 8, 0.0, 50) for _ in range(count)]


# The four worked examples of the README and the acceptance suite (eq mode).
FIXTURES = (
    ([[3, 7, -1, NI], [6, 7, NI, NI], [1, 0, 1, NI]],
     [[NI, NI, NI, 8], [NI, NI, 5, 1], [1, 0, 1, 2]]),
    ([[3, 7, -1, NI], [6, 7, NI, NI], [-9, 0, 0, NI]],
     [[NI, NI, NI, 8], [NI, NI, 5, 1], [-9, 0, NI, -4]]),
    ([[1, 3, NI], [5, 0, NI], [NI, 3, NI]],
     [[NI, NI, 3], [5, 0, 2], [3, NI, 2]]),
    ([[NI, NI, NI, 0, 4, 2, 6], [NI, 5, 6, NI, NI, NI, 2]],
     [[0, 1, 5, NI, NI, NI, NI], [3, NI, NI, 0, 2, 4, NI]]),
)


def _cli_shapes():
    """One stratum per mode and shape, so every pool has the same mix.

    hetero keeps n + m <= 5 and affine/eqb homogenize to n + 1 <= 5 columns:
    with the 6-point check grid that is at most 6**6 oracle candidates,
    inside the oracle cap.  (A hetero instance with n + m = 8 exceeds the
    cap; see NOTES.md for what the CLI does then.)
    """
    shapes = []
    for mode in ("eq", "leq", "eqb", "affine"):
        shapes += [(mode, m, n, None) for m in range(1, 5) for n in range(1, 5)]
    shapes += [
        ("hetero", m, n, s)
        for s in range(1, 5)
        for n in range(1, 5)
        for m in range(1, 5)
        if n + m <= 5
    ]
    return shapes


def _text(lines, blocks):
    out = list(lines)
    for name, rows in blocks:
        out.append(f"{name}:")
        out.extend(" ".join("-inf" if v is NI else str(v) for v in row) for row in rows)
    return "\n".join(out) + "\n"


def _cli_instance(rng, mode, m, n, s):
    mat = lambda r, c: _matrix(rng, r, c, 0.3, -3, 3)  # noqa: E731
    head = [f"problem: {mode}", f"m: {m}", f"n: {n}"]
    if mode in ("eq", "leq"):
        return _text(head, [("A", mat(m, n)), ("B", mat(m, n))])
    if mode == "eqb":
        return _text(head, [("A", mat(m, n)), ("b", mat(1, m))])
    if mode == "affine":
        return _text(head, [("A", mat(m, n)), ("B", mat(m, n)), ("a", mat(1, m)), ("b", mat(1, m))])
    return _text(head + [f"s: {s}"], [("C", mat(s, n)), ("D", mat(s, m))])


def gen_cli_check(rng, count):
    # Why: small mixed-mode instances (eq, leq, eqb, hetero, affine; m, n <= 4)
    # plus the four worked examples, each through tropsolve.cli.run in-process
    # with --format json --check on a 6-point grid.  The same cells layer is
    # used differently: many tiny solves through the reductions bridges,
    # read back by cell_membership and sample_cell in the grid oracle, with
    # parse and render cost included.  Any fixed cost added per solve call
    # shows here; a solver-core speed-up should not.
    shapes = _cli_shapes()
    out = [
        (_text(["problem: eq", f"m: {len(a)}", f"n: {len(a[0])}"], [("A", a), ("B", b)]), None, None)
        for a, b in FIXTURES
    ]
    for k in range(count - len(FIXTURES)):
        out.append((_cli_instance(rng, *shapes[k % len(shapes)]), None, None))
    return out[:count]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search", pool=720, trace_instances=120, generate=gen_search, kind="solver"),
        Workload("cells-wide", pool=420, trace_instances=100, generate=gen_cells_wide, kind="solver"),
        Workload("cli-check", pool=940, trace_instances=212, generate=gen_cli_check, kind="cli"),
    )
}


def make_pool(workload: Workload, seed, ts, count: int | None = None) -> list[Instance]:
    """The workload's instances for this seed, as program inputs.

    ``ts`` is the imported ``tropsolve`` package; its scalar and matrix
    types are what the program accepts.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    raw = workload.generate(rng, count or workload.pool)
    if workload.kind == "cli":
        return [Instance(text) for text, _, _ in raw]

    def matrix(rows):
        return ts.Matrix([["-inf" if v is NI else v for v in row] for row in rows])

    out = []
    for a, b, x in raw:
        planted = None if x is None else tuple(Fraction(v) for v in x)
        out.append(Instance((matrix(a), matrix(b)), planted))
    return out


# ----------------------------------------------------- operations and checks


def solver_op(ts, inst: Instance):
    a, b = inst.data
    return ts.cells.solve(a, b, collect_stats=True)


def cli_op(ts, inst: Instance):
    """One in-process ``tropsolve`` invocation on stdin; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(inst.data)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ts.cli.run(["-", "--format", "json", "--check", CHECK_GRID])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def canonical(ts, workload: Workload, output) -> str:
    """The output as the deterministic ``--format json`` document."""
    if workload.kind == "cli":
        return output[1]
    return ts.cli.emit(output, "json")


def check(ts, workload: Workload, inst: Instance, output) -> list[str]:
    """Correctness problems of one output; an empty list means it passed.

    Solver outputs: every sampled point of every cell solves the system
    (soundness) and the planted solution lies in some cell (completeness).
    CLI outputs: exit code 0, a JSON document on stdout, and an oracle
    report with nothing missed and nothing invalid.
    """
    problems = []
    if workload.kind == "cli":
        code, out, err = output
        if code != 0:
            problems.append(f"exit code {code}: {err.strip()[-200:]}")
        try:
            json.loads(out)
        except ValueError:
            problems.append("stdout is not a JSON document")
        reports = [line[len("check: "):] for line in err.splitlines() if line.startswith("check: ")]
        if len(reports) != 1:
            problems.append("no oracle report")
        else:
            report = json.loads(reports[0])
            if report.get("missed") != 0 or report.get("invalid") != 0:
                problems.append(f"oracle report not ok: {report}")
        return problems

    a, b = inst.data
    for idx, cell in enumerate(output.cells):
        for point in ts.cells.sample_cell(cell, SAMPLES_PER_CELL, seed=idx):
            if not ts.cells.verify_solution(a, b, point):
                problems.append(f"cell {idx}: sampled point {point} is not a solution")
    if inst.planted is not None:
        if not any(ts.cells.cell_membership(cell, inst.planted) for cell in output.cells):
            problems.append(f"planted solution {inst.planted} lies in no cell")
    return problems
