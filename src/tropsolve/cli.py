"""Command-line front end.

Reads an instance file (or stdin), dispatches on the problem mode, prints
the cell decomposition as text or JSON, and optionally cross-validates the
result against the brute-force grid oracle.  All external indices are
1-based; rationals serialize as strings so no consumer ever parses a float.

Exit codes: 0 success, 1 parse error, 2 cross-validation failure, 3 the
--check grid has more candidates than the oracle's cap.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .cells import SolutionCell, SolutionSet, geometric_key, solve
from .core import NEG_INF, Matrix, NegInfinity, Scalar, TropicalError, as_scalar
from .oracle import GridSpec, GridTooLarge, cross_validate
from .reductions import (
    AffineInstance,
    PinnedSolutionSet,
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
            blocks[pending_block] = []
            continue
        if ":" in content and content.split(":", 1)[0] in ("problem", "m", "n", "s"):
            key, value = content.split(":", 1)
            header[key.strip()] = value.strip()
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

    def int_header(key: str) -> int:
        if key not in header:
            raise ParseError(1, f"missing '{key}:' header")
        try:
            value = int(header[key])
        except ValueError:
            raise ParseError(1, f"'{key}:' must be an integer")
        if value < 0:
            raise ParseError(1, f"'{key}:' must be nonnegative")
        return value

    m = int_header("m")
    n = int_header("n")
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


def _cell_doc(cell: SolutionCell) -> dict:
    return {
        "win_sequence": [[p + 1, q + 1] for p, q in cell.win_sequence],
        "neg_inf": sorted(v + 1 for v in cell.neg_inf),
        "assignments": {
            str(v + 1): {"param": p + 1, "offset": str(o)}
            for v, (p, o) in sorted(cell.assignments.items())
        },
        "constraints": [
            {"plus": c.plus + 1, "minus": c.minus + 1, "const": str(c.constant)}
            for c in cell.constraints
        ],
        "dimension_bound": cell.dimension_bound,
    }


def _solution_doc(result: SolutionSet) -> dict:
    return {
        "trivial_only": result.trivial_only,
        "p": result.win_sequence_count,
        "globally_forced": sorted(v + 1 for v in result.globally_forced),
        "cells": [_cell_doc(c) for c in result.cells],
    }


def _pinned_doc(result: PinnedSolutionSet, problem: str) -> dict:
    cells = []
    for cell in result.cells:
        cells.append(
            {
                "fixed": {str(v + 1): str(c) for v, c in sorted(cell.fixed.items())},
                "neg_inf": sorted(v + 1 for v in cell.neg_inf),
                "assignments": {
                    str(v + 1): {"param": p + 1, "offset": str(o)}
                    for v, (p, o) in sorted(cell.assignments.items())
                },
                "lower": {str(p + 1): str(v) for p, v in sorted(cell.lower.items())},
                "upper": {str(p + 1): str(v) for p, v in sorted(cell.upper.items())},
                "constraints": [
                    {"plus": c.plus + 1, "minus": c.minus + 1, "const": str(c.constant)}
                    for c in cell.constraints
                ],
            }
        )
    return {
        "problem": problem,
        "p": result.base.win_sequence_count,
        "no_solution": not result.cells,
        "cells": cells,
    }


def _cell_text(index: int, cell: SolutionCell) -> list[str]:
    seq = " ".join(f"({p + 1},{q + 1})" for p, q in cell.win_sequence)
    lines = [f"cell {index}: win sequence {seq}".rstrip()]
    for v in range(cell.num_vars):
        if v in cell.neg_inf:
            lines.append(f"  x{v + 1} = -inf")
        else:
            p, o = cell.assignments[v]
            if o == 0:
                lines.append(f"  x{v + 1} = t{p + 1}")
            elif o > 0:
                lines.append(f"  x{v + 1} = t{p + 1} + {o}")
            else:
                lines.append(f"  x{v + 1} = t{p + 1} - {-o}")
    if cell.constraints:
        lines.append("  subject to:")
        for c in cell.constraints:
            cst = c.constant
            tail = "" if cst == 0 else (f" + {cst}" if cst > 0 else f" - {-cst}")
            lines.append(f"    t{c.plus + 1} - t{c.minus + 1}{tail} <= 0")
    lines.append(f"  dimension bound: {cell.dimension_bound}")
    return lines


def _solution_text(result: SolutionSet) -> str:
    lines = [f"p: {result.win_sequence_count}"]
    if result.trivial_only:
        lines.append("trivial_only: true")
    if result.globally_forced:
        forced = " ".join(f"x{v + 1}" for v in sorted(result.globally_forced))
        lines.append(f"forced to -inf everywhere: {forced}")
    for i, cell in enumerate(result.cells, start=1):
        lines.extend(_cell_text(i, cell))
    return "\n".join(lines) + "\n"


def _pinned_text(result: PinnedSolutionSet, problem: str) -> str:
    lines = [f"problem: {problem}", f"p: {result.base.win_sequence_count}"]
    if not result.cells:
        lines.append("no solution")
    for i, cell in enumerate(result.cells, start=1):
        lines.append(f"cell {i}:")
        for v in range(cell.num_vars()):
            if v in cell.neg_inf:
                lines.append(f"  x{v + 1} = -inf")
            elif v in cell.fixed:
                lines.append(f"  x{v + 1} = {cell.fixed[v]}")
            else:
                p, o = cell.assignments[v]
                tail = "" if o == 0 else (f" + {o}" if o > 0 else f" - {-o}")
                lines.append(f"  x{v + 1} = t{p + 1}{tail}")
        for p in sorted(set(cell.lower) | set(cell.upper)):
            lo = cell.lower.get(p)
            hi = cell.upper.get(p)
            if lo is not None and hi is not None:
                lines.append(f"  {lo} <= t{p + 1} <= {hi}")
            elif lo is not None:
                lines.append(f"  t{p + 1} >= {lo}")
            else:
                lines.append(f"  t{p + 1} <= {hi}")
        for c in cell.constraints:
            cst = c.constant
            tail = "" if cst == 0 else (f" + {cst}" if cst > 0 else f" - {-cst}")
            lines.append(f"  t{c.plus + 1} - t{c.minus + 1}{tail} <= 0")
    return "\n".join(lines) + "\n"


def emit(result, fmt: str = "text") -> str:
    """Render a solution set (plain or pinned) as deterministic text or JSON."""
    if isinstance(result, SolutionSet):
        doc = _solution_doc(result)
        if fmt == "json":
            return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        return _solution_text(result)
    if isinstance(result, PinnedSolutionSet):
        if fmt == "json":
            return (
                json.dumps(_pinned_doc(result, "affine"), sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        return _pinned_text(result, "affine")
    raise TypeError(f"cannot emit {type(result).__name__}")


def _dedupe(result: SolutionSet) -> SolutionSet:
    seen = set()
    kept = []
    for cell in result.cells:
        key = geometric_key(cell)
        if key in seen:
            continue
        seen.add(key)
        kept.append(cell)
    return SolutionSet(
        cells=tuple(kept),
        globally_forced=result.globally_forced,
        trivial_only=result.trivial_only,
        win_sequence_count=result.win_sequence_count,
        num_vars=result.num_vars,
        stats=result.stats,
    )


def _parse_grid(option: str) -> GridSpec:
    if not option.startswith("grid="):
        raise ValueError("--check expects grid=<v1,v2,...>")
    tokens = [t for t in option[len("grid="):].split(",") if t]
    if not tokens:
        raise ValueError("--check grid needs at least one value")
    return GridSpec.of([Fraction(t) for t in tokens])


def run(argv: list[str] | None = None) -> int:
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
    args = parser.parse_args(argv)

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

    t0 = time.perf_counter()
    check_pair: tuple[Matrix, Matrix] | None = None
    result: SolutionSet | PinnedSolutionSet
    if inst.problem == "eq":
        a, b = inst.matrices["A"], inst.matrices["B"]
        result = solve(a, b, collect_stats=True)
        check_pair = (a, b)
    elif inst.problem == "leq":
        a, b = inst.matrices["A"], inst.matrices["B"]
        merged, rhs = leq_to_eq(a, b)
        result = solve(merged, rhs, collect_stats=True)
        check_pair = (merged, rhs)
    elif inst.problem == "hetero":
        c, d = inst.matrices["C"], inst.matrices["D"]
        result = solve_hetero(c, d, collect_stats=True)
        if c.rows > 0:
            check_pair = hetero_to_homo(c, d)
    elif inst.problem == "eqb":
        result = solve_eq_b(inst.matrices["A"], inst.vectors["b"], collect_stats=True)
        check_pair = None
    else:  # affine
        affine = AffineInstance(
            inst.matrices["A"],
            inst.matrices["B"],
            inst.vectors["a"],
            inst.vectors["b"],
        )
        result = solve_affine(affine, collect_stats=True)
        check_pair = homogenize_affine(affine)
    elapsed = time.perf_counter() - t0

    if isinstance(result, SolutionSet) and args.dedupe:
        result = _dedupe(result)

    exit_code = 0
    if args.check is not None:
        try:
            grid = _parse_grid(args.check)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if inst.problem == "eqb":
            neg = Matrix(
                [[NEG_INF] * inst.n for _ in range(inst.m)], cols=inst.n
            )
            check_pair = homogenize_affine(
                AffineInstance(
                    inst.matrices["A"], neg, tuple([NEG_INF] * inst.m), inst.vectors["b"]
                )
            )
        target = result.base if isinstance(result, PinnedSolutionSet) else result
        if check_pair is None:
            print("check skipped: nothing to validate", file=sys.stderr)
        else:
            try:
                report = cross_validate(
                    check_pair[0], check_pair[1], grid, target, seed=args.seed
                )
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

    if isinstance(result, PinnedSolutionSet):
        fmt_problem = inst.problem
        doc = (
            json.dumps(_pinned_doc(result, fmt_problem), sort_keys=True, separators=(",", ":"))
            + "\n"
            if args.format == "json"
            else _pinned_text(result, fmt_problem)
        )
        sys.stdout.write(doc)
    else:
        sys.stdout.write(emit(result, args.format))

    if args.stats:
        stats = result.stats if isinstance(result, SolutionSet) else result.base.stats
        payload = {
            "p": (result.win_sequence_count
                  if isinstance(result, SolutionSet)
                  else result.base.win_sequence_count),
            "time_total": round(elapsed, 6),
        }
        if stats is not None:
            payload["enum_nodes"] = stats.enum_nodes
            payload["scenarios"] = stats.scenarios
            for key, value in stats.timings.items():
                payload[f"time_{key}"] = round(value, 6)
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
