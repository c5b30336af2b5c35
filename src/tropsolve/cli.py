"""Command-line front end.

Reads an instance file (or stdin) and sends every problem mode down one
path.  _solve builds the mode's result (a SolutionSet for eq, leq and
hetero; a PinnedSolutionSet for eqb and affine, whose base is the
SolutionSet of the homogenized system) together with the two-sided pair
A (x) x = B (x) x that the base result solves.  --dedupe thins a plain
result; --check cross-validates the base result against that pair with the
brute-force grid oracle; emit prints the result as text or JSON from its
cells' ints (each distinct (int, scale) formatted once per call), plain
and pinned cells through the same helpers, a pinned cell numbered as its
vectors are (without the pinned variable); --stats prints the base
result's counters and timings.  All external indices are 1-based;
rationals serialize as strings so no consumer ever parses a float.

The argument parser is built once, when the module is imported, so run
can be called again and again in one process at no fixed cost per call
beyond parsing its arguments; it leaves no cyclic garbage behind.

Exit codes: 0 success, 1 parse error, 2 cross-validation failure, 3 the
--check grid has more candidates than the oracle's cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .cells import SolutionCell, SolutionSet, geometric_key, solve
from .core import (
    Matrix,
    NegInfinity,
    Scalar,
    TokenTooLarge,
    TropicalError,
    _check_token_size,
    as_scalar,
)
from .oracle import GridSpec, GridTooLarge, cross_validate
from .reductions import (
    AffineInstance,
    PinnedSolutionSet,
    eq_b_to_affine,
    hetero_to_homo,
    homogenize_affine,
    leq_to_eq,
    solve_affine,
    solve_eq_b,
    solve_hetero,
)

PROBLEMS = ("eq", "leq", "eqb", "hetero", "affine")


class ParseError(TropicalError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class InstanceFile:
    problem: str
    m: int
    n: int
    s: int | None
    matrices: dict
    vectors: dict


def _scalar_token(token: str, line: int) -> Scalar:
    try:
        return as_scalar(token)
    except TokenTooLarge as exc:
        raise ParseError(line, str(exc))
    except (ValueError, TypeError):
        raise ParseError(line, f"unknown token {token!r}")


def parse_instance(text: str) -> InstanceFile:
    """Parse the line-oriented instance grammar; '#' starts a comment."""
    lines = text.splitlines()
    header: dict[str, str] = {}
    blocks: dict[str, list[tuple[int, list[str]]]] = {}
    pending_block: str | None = None
    for lineno, raw in enumerate(lines, start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        if content.endswith(":") and content[:-1] in ("A", "B", "C", "D", "a", "b"):
            pending_block = content[:-1]
            if pending_block in blocks:
                raise ParseError(lineno, f"repeated block '{pending_block}:'")
            blocks[pending_block] = []
            continue
        if ":" in content and content.split(":", 1)[0] in ("problem", "m", "n", "s"):
            key, value = content.split(":", 1)
            if key in header:
                raise ParseError(lineno, f"repeated header '{key}:'")
            header[key] = value.strip()
            pending_block = None
            continue
        if pending_block is None:
            raise ParseError(lineno, f"unexpected content {content!r}")
        blocks[pending_block].append((lineno, content.split()))

    if "problem" not in header:
        raise ParseError(1, "missing 'problem:' header")
    problem = header["problem"]
    if problem not in PROBLEMS:
        raise ParseError(1, f"unknown problem kind {problem!r}")

    def int_header(key: str, positive: bool = False) -> int:
        if key not in header:
            raise ParseError(1, f"missing '{key}:' header")
        try:
            value = int(header[key])
        except ValueError:
            raise ParseError(1, f"'{key}:' must be an integer")
        if value < 0:
            raise ParseError(1, f"'{key}:' must be nonnegative")
        if positive and value == 0:
            raise ParseError(1, f"'{key}:' must be positive")
        return value

    # n counts the columns of x, and in hetero mode m counts those of y
    m = int_header("m", positive=problem == "hetero")
    n = int_header("n", positive=True)
    s = int_header("s") if problem == "hetero" else None

    def matrix_block(name: str, rows: int, cols: int) -> Matrix:
        if name not in blocks:
            raise ParseError(len(lines), f"missing block '{name}:'")
        data = blocks[name]
        if len(data) != rows:
            where = data[-1][0] if data else len(lines)
            raise ParseError(where, f"block '{name}:' needs {rows} rows, got {len(data)}")
        grid = []
        for lineno, tokens in data:
            if len(tokens) != cols:
                raise ParseError(lineno, f"expected {cols} entries, got {len(tokens)}")
            grid.append([_scalar_token(t, lineno) for t in tokens])
        return Matrix(grid, cols=cols)

    def vector_block(name: str, length: int) -> tuple[Scalar, ...]:
        if name not in blocks:
            raise ParseError(len(lines), f"missing block '{name}:'")
        data = blocks[name]
        if length == 0 and not data:
            return ()  # the empty vector is a block without lines
        if len(data) != 1:
            where = data[-1][0] if data else len(lines)
            raise ParseError(where, f"block '{name}:' must be a single line")
        lineno, tokens = data[0]
        if len(tokens) != length:
            raise ParseError(lineno, f"expected {length} entries, got {len(tokens)}")
        return tuple(_scalar_token(t, lineno) for t in tokens)

    matrices: dict = {}
    vectors: dict = {}
    if problem in ("eq", "leq"):
        matrices["A"] = matrix_block("A", m, n)
        matrices["B"] = matrix_block("B", m, n)
    elif problem == "eqb":
        matrices["A"] = matrix_block("A", m, n)
        vectors["b"] = vector_block("b", m)
    elif problem == "hetero":
        matrices["C"] = matrix_block("C", s, n)
        matrices["D"] = matrix_block("D", s, m)
    elif problem == "affine":
        matrices["A"] = matrix_block("A", m, n)
        matrices["B"] = matrix_block("B", m, n)
        vectors["a"] = vector_block("a", m)
        vectors["b"] = vector_block("b", m)
    return InstanceFile(problem, m, n, s, matrices, vectors)


def _scalar_text(v: Scalar) -> str:
    return "-inf" if isinstance(v, NegInfinity) else str(v)


def format_instance(inst: InstanceFile) -> str:
    """Serialize an instance back to the file grammar (parse round-trips)."""
    out = [f"problem: {inst.problem}", f"m: {inst.m}", f"n: {inst.n}"]
    if inst.s is not None:
        out.append(f"s: {inst.s}")
    for name, matrix in inst.matrices.items():
        out.append(f"{name}:")
        for i in range(matrix.rows):
            out.append(" ".join(_scalar_text(v) for v in matrix.row(i)))
    for name, vector in inst.vectors.items():
        out.append(f"{name}:")
        out.append(" ".join(_scalar_text(v) for v in vector))
    return "\n".join(out) + "\n"


def _shift(value: Fraction) -> str:
    """The ' + c' / ' - c' tail of t_p + value; empty for 0."""
    if value == 0:
        return ""
    return f" + {value}" if value > 0 else f" - {-value}"


def _scaled_text(fmt):
    """A per-cell view of fmt(Fraction(value, scale)), memoized for one emit call.

    Cells hold ints over a per-cell scale; the memo is keyed on
    (value, scale), so each distinct number of the output is formatted once.
    """
    memo: dict[tuple[int, int], str] = {}

    def for_scale(scale: int):
        def text(value: int) -> str:
            key = (value, scale)
            out = memo.get(key)
            if out is None:
                out = memo[key] = fmt(Fraction(value, scale))
            return out

        return text

    return for_scale


def _assignments_doc(assigned, text) -> dict:
    return {str(v + 1): {"param": p + 1, "offset": text(o)} for v, p, o in assigned}


def _values_doc(pairs, text) -> dict:
    return {str(k + 1): text(c) for k, c in pairs}


def _constraints_doc(rows, text) -> list:
    return [
        {"plus": plus + 1, "minus": minus + 1, "const": text(c)} for plus, minus, c in rows
    ]


def _cell_doc(cell: SolutionCell, text) -> dict:
    return {
        "win_sequence": [[p + 1, q + 1] for p, q in cell.win_sequence],
        "neg_inf": sorted(v + 1 for v in cell.neg_inf),
        "assignments": _assignments_doc(cell.assigned, text),
        "constraints": _constraints_doc(cell.rows, text),
        "dimension_bound": cell.dimension_bound,
    }


def _solution_doc(result: SolutionSet) -> dict:
    texts = _scaled_text(str)
    return {
        "trivial_only": result.trivial_only,
        "p": result.win_sequence_count,
        "globally_forced": sorted(v + 1 for v in result.globally_forced),
        "cells": [_cell_doc(c, texts(c.scale)) for c in result.cells],
    }


def _pinned_doc(result: PinnedSolutionSet) -> dict:
    texts = _scaled_text(str)
    cells = []
    for cell in result.cells:
        text = texts(cell.scale)
        cells.append({
            "fixed": _values_doc(cell.fixed, text),
            "neg_inf": sorted(v + 1 for v in cell.neg_inf),
            "assignments": _assignments_doc(cell.assigned, text),
            "lower": _values_doc(cell.lower, text),
            "upper": _values_doc(cell.upper, text),
            "constraints": _constraints_doc(cell.rows, text),
        })
    return {
        "problem": result.problem,
        "p": result.base.win_sequence_count,
        "no_solution": not result.cells,
        "cells": cells,
    }


def _variable_lines(num_vars: int, neg_inf, fixed, assigned, shift) -> list[str]:
    lines = {v: f"  x{v + 1} = -inf" for v in neg_inf}
    lines.update((v, f"  x{v + 1} = {c}") for v, c in fixed)
    lines.update((v, f"  x{v + 1} = t{p + 1}{shift(o)}") for v, p, o in assigned)
    return [lines[v] for v in range(num_vars)]


def _constraint_text(row, shift) -> str:
    plus, minus, c = row
    return f"t{plus + 1} - t{minus + 1}{shift(c)} <= 0"


def _cell_text(index: int, cell: SolutionCell, shift) -> list[str]:
    seq = " ".join(f"({p + 1},{q + 1})" for p, q in cell.win_sequence)
    lines = [f"cell {index}: win sequence {seq}".rstrip()]
    lines.extend(_variable_lines(cell.num_vars, cell.neg_inf, (), cell.assigned, shift))
    if cell.rows:
        lines.append("  subject to:")
        lines.extend(f"    {_constraint_text(row, shift)}" for row in cell.rows)
    lines.append(f"  dimension bound: {cell.dimension_bound}")
    return lines


def _solution_text(result: SolutionSet) -> str:
    shifts = _scaled_text(_shift)
    lines = [f"p: {result.win_sequence_count}"]
    if result.trivial_only:
        lines.append("trivial_only: true")
    if result.globally_forced:
        forced = " ".join(f"x{v + 1}" for v in sorted(result.globally_forced))
        lines.append(f"forced to -inf everywhere: {forced}")
    for i, cell in enumerate(result.cells, start=1):
        lines.extend(_cell_text(i, cell, shifts(cell.scale)))
    return "\n".join(lines) + "\n"


def _pinned_text(result: PinnedSolutionSet) -> str:
    texts, shifts = _scaled_text(str), _scaled_text(_shift)
    lines = [f"problem: {result.problem}", f"p: {result.base.win_sequence_count}"]
    if not result.cells:
        lines.append("no solution")
    for i, cell in enumerate(result.cells, start=1):
        text, shift = texts(cell.scale), shifts(cell.scale)
        fixed = [(v, text(c)) for v, c in cell.fixed]
        lines.append(f"cell {i}:")
        lines.extend(_variable_lines(cell.num_vars, cell.neg_inf, fixed, cell.assigned, shift))
        lower = {p: text(b) for p, b in cell.lower}
        upper = {p: text(b) for p, b in cell.upper}
        for p in sorted(lower.keys() | upper.keys()):
            lo, hi = lower.get(p), upper.get(p)
            if lo is not None and hi is not None:
                lines.append(f"  {lo} <= t{p + 1} <= {hi}")
            elif lo is not None:
                lines.append(f"  t{p + 1} >= {lo}")
            else:
                lines.append(f"  t{p + 1} <= {hi}")
        lines.extend(f"  {_constraint_text(row, shift)}" for row in cell.rows)
    return "\n".join(lines) + "\n"


def emit(result, fmt: str = "text") -> str:
    """Render a solution set (plain or pinned) as deterministic text or JSON.

    fmt is "text" or "json"; a pinned set names its own mode (affine or
    eqb).  Both kinds are rendered from their cells' ints.
    """
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r}: expected 'text' or 'json'")
    if isinstance(result, SolutionSet):
        if fmt == "json":
            return _json(_solution_doc(result))
        return _solution_text(result)
    if isinstance(result, PinnedSolutionSet):
        if fmt == "json":
            return _json(_pinned_doc(result))
        return _pinned_text(result)
    raise TypeError(f"cannot emit {type(result).__name__}")


def _json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _dedupe(result: SolutionSet) -> SolutionSet:
    seen = set()
    kept = []
    for cell in result.cells:
        key = geometric_key(cell)
        if key in seen:
            continue
        seen.add(key)
        kept.append(cell)
    return replace(result, cells=tuple(kept))


def _parse_grid(option: str) -> GridSpec:
    if not option.startswith("grid="):
        raise ValueError("--check expects grid=<v1,v2,...>")
    tokens = [t for t in option[len("grid="):].split(",") if t]
    if not tokens:
        raise ValueError("--check grid needs at least one value")
    for t in tokens:
        _check_token_size(t)  # TokenTooLarge is a ValueError, before any Fraction
    try:
        values = [Fraction(t) for t in tokens]
    except ZeroDivisionError:
        raise ValueError(f"--check grid has a value with a zero denominator: {option!r}")
    return GridSpec.of(values)


def _solve(inst: InstanceFile):
    """The result of the instance's mode and the pair its base result solves."""
    mats, vecs = inst.matrices, inst.vectors
    if inst.problem == "eq":
        pair = (mats["A"], mats["B"])
        return solve(*pair, collect_stats=True), pair
    if inst.problem == "leq":
        pair = leq_to_eq(mats["A"], mats["B"])
        return solve(*pair, collect_stats=True), pair
    if inst.problem == "hetero":
        c, d = mats["C"], mats["D"]
        return solve_hetero(c, d, collect_stats=True), hetero_to_homo(c, d)
    if inst.problem == "eqb":
        affine = eq_b_to_affine(mats["A"], vecs["b"])
        return solve_eq_b(mats["A"], vecs["b"], collect_stats=True), homogenize_affine(affine)
    affine = AffineInstance(mats["A"], mats["B"], vecs["a"], vecs["b"])
    return solve_affine(affine, collect_stats=True), homogenize_affine(affine)


def _argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropsolve",
        description="Exact cell decomposition of two-sided max-plus linear systems.",
    )
    parser.add_argument("input", help="instance file, or '-' for stdin")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--check", metavar="grid=V1,V2,...", default=None)
    parser.add_argument("--dedupe", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--stats", action="store_true")
    return parser


# Built once: parse_args leaves the parser as it found it, and each call
# gets a fresh Namespace, so no option carries over from one run to the next.
_PARSER = _argument_parser()


def run(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    try:
        inst = parse_instance(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1

    grid = None
    if args.check is not None:
        try:
            grid = _parse_grid(args.check)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    result, check_pair = _solve(inst)
    if args.dedupe and isinstance(result, SolutionSet):
        result = _dedupe(result)
    base = result.base if isinstance(result, PinnedSolutionSet) else result

    exit_code = 0
    if grid is not None:
        try:
            report = cross_validate(*check_pair, grid, base, seed=args.seed)
        except GridTooLarge as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        summary = {
            "missed": len(report.missed),
            "invalid": len(report.invalid),
            "oracle_solutions": report.oracle_count,
            "samples": report.sample_count,
        }
        print(f"check: {json.dumps(summary, sort_keys=True)}", file=sys.stderr)
        if not report.ok:
            exit_code = 2

    sys.stdout.write(emit(result, args.format))

    if args.stats:
        payload = {
            "p": base.win_sequence_count,
            "enum_nodes": base.stats.enum_nodes,
            "scenarios": base.stats.scenarios,
            "collapsed": base.stats.collapsed,
        }
        for key, value in base.stats.timings.items():
            payload[f"time_{key}"] = round(value, 6)
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
