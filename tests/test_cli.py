import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tropsolve
from conftest import make_cell, planted_rows, random_rows
from tropsolve import NEG_INF, emit, solve
from tropsolve.cli import ParseError, format_instance, parse_instance, run

RUNNING = """\
# the 3x4 worked instance
problem: eq
m: 3
n: 4
A:
3 7 -1 -inf
6 7 -inf -inf
1 0 1 -inf
B:
-inf -inf -inf 8
-inf -inf 5 1
1 0 1 2
"""

AFFINE = """\
problem: affine
m: 1
n: 1
A:
0
B:
0
a:
0
b:
1
"""


def test_parse_running_example(running_example):
    inst = parse_instance(RUNNING)
    a, b = running_example
    assert inst.problem == "eq"
    assert inst.matrices["A"] == a and inst.matrices["B"] == b


def test_parse_fraction_and_decimal_tokens():
    text = "problem: eq\nm: 1\nn: 2\nA:\n7/2 0.25\nB:\n-inf 1\n"
    inst = parse_instance(text)
    from fractions import Fraction

    assert inst.matrices["A"].row(0) == (Fraction(7, 2), Fraction(1, 4))


def test_parse_errors_carry_line_numbers():
    bad_arity = "problem: eq\nm: 1\nn: 2\nA:\n1\nB:\n1 2\n"
    with pytest.raises(ParseError) as err:
        parse_instance(bad_arity)
    assert err.value.line == 5
    with pytest.raises(ParseError):
        parse_instance("problem: eq\nm: 1\nn: 1\nA:\nxyz\nB:\n0\n")
    with pytest.raises(ParseError):
        parse_instance("problem: eq\nm: 1\nn: 1\nA:\n0\n")  # missing B
    with pytest.raises(ParseError):
        parse_instance("m: 1\nn: 1\nA:\n0\nB:\n0\n")  # missing problem


def test_format_parse_round_trip():
    inst = parse_instance(RUNNING)
    again = parse_instance(format_instance(inst))
    assert again == inst
    affine = parse_instance(AFFINE)
    assert parse_instance(format_instance(affine)) == affine


def test_emit_json_schema(running_example):
    a, b = running_example
    doc = json.loads(emit(solve(a, b), "json"))
    assert set(doc) == {"trivial_only", "p", "globally_forced", "cells"}
    assert doc["p"] == 3
    assert doc["trivial_only"] is False
    cell = doc["cells"][0]
    assert set(cell) == {
        "win_sequence",
        "neg_inf",
        "assignments",
        "constraints",
        "dimension_bound",
    }
    assert cell["win_sequence"] == [[1, 4], [1, 3], [3, 3]]
    assert cell["assignments"]["1"] == {"param": 1, "offset": "0"}
    assert all(isinstance(c["const"], str) for c in cell["constraints"])


def test_emit_trivial_only(empty_case_example):
    a, b = empty_case_example
    doc = json.loads(emit(solve(a, b), "json"))
    assert doc["trivial_only"] is True
    assert doc["cells"] == []
    text = emit(solve(a, b), "text")
    assert "trivial_only: true" in text


def test_emit_p_zero():
    from tropsolve import Matrix

    doc = json.loads(emit(solve(Matrix([[5]]), Matrix([[0]])), "json"))
    assert doc == {
        "trivial_only": True,
        "p": 0,
        "globally_forced": [1],
        "cells": [],
    }


def test_emit_text_mirrors_cells(running_example):
    a, b = running_example
    text = emit(solve(a, b), "text")
    assert "cell 1: win sequence (1,4) (1,3) (3,3)" in text
    assert "cell 2: win sequence (2,4) (1,3) (3,3)" in text
    assert "dimension bound: 2" in text


def test_run_eq_mode(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(RUNNING)
    code = run([str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["p"] == 3


def test_run_with_check(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(RUNNING)
    code = run([str(path), "--check", "grid=-2,-1,0,1,2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert '"missed": 0' in captured.err


def test_run_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("problem: eq\nm: 1\nn: 2\nA:\n1\nB:\n1 2\n")
    assert run([str(path)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_run_check_grid_too_large_exit_code(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text("problem: eq\nm: 1\nn: 8\nA:\n0 1 2 3 -inf -inf -inf -inf\n"
                    "B:\n-inf -inf -inf -inf 0 1 2 3\n")
    # 6^8 grid candidates exceed the oracle cap of 10^6
    assert run([str(path), "--check", "grid=-2,-1,0,1,2"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "exceed the cap" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_run_check_failure_exit_code(tmp_path, capsys, monkeypatch):
    import tropsolve.cli as cli_mod
    from tropsolve.oracle import CrossValidationReport

    def fake_cross_validate(*args, **kwargs):
        return CrossValidationReport(
            missed=(((0,),)), invalid=(), oracle_count=1, sample_count=0
        )

    monkeypatch.setattr(cli_mod, "cross_validate", fake_cross_validate)
    path = tmp_path / "inst.txt"
    path.write_text(RUNNING)
    assert run([str(path), "--check", "grid=0"]) == 2


def test_run_affine_mode(tmp_path, capsys):
    path = tmp_path / "affine.txt"
    path.write_text(AFFINE)
    code = run([str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["problem"] == "affine"
    assert doc["cells"], doc
    # the solution set is x >= 1: the single cell carries a lower bound
    assert doc["cells"][0]["lower"] == {"1": "1"}


def test_run_stats_flag(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(RUNNING)
    assert run([str(path), "--stats"]) == 0
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["p"] == 3 and "enum_nodes" in payload


def test_run_dedupe_flag(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(RUNNING)
    assert run([str(path), "--dedupe", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["cells"]) == 3  # no exact duplicates here


def test_emit_pinned_set():
    from fractions import Fraction

    from tropsolve.reductions import AffineInstance, solve_affine
    from tropsolve import Matrix

    inst = AffineInstance(
        Matrix([[0]]), Matrix([[0]]), (Fraction(0),), (Fraction(1),)
    )
    doc = json.loads(emit(solve_affine(inst), "json"))
    assert doc["problem"] == "affine" and doc["cells"]
    text = emit(solve_affine(inst), "text")
    assert "t1 >= 1" in text


def test_emit_lists_bounded_parameters_in_numeric_order():
    from tropsolve.cells import SolutionSet
    from tropsolve.reductions import PinnedSolutionSet, pin_variable

    # twelve variables on their own parameters; pinning x1 bounds the eleven others
    cell = make_cell(12, [(v, v, 0) for v in range(1, 13)], [(1, p, -p) for p in range(2, 13)])
    base = SolutionSet((cell,), frozenset(), False, 0, 12)
    text = emit(PinnedSolutionSet(base, (pin_variable(cell, 0, 0),), 11), "text")
    bounded = [int(line.split()[0][1:]) for line in text.splitlines() if " >= " in line]
    assert bounded == list(range(1, 12))


def test_module_entry_point(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(RUNNING)
    # the child imports the same package as this process, installed or not
    src = str(Path(tropsolve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tropsolve", str(path), "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p"] == 3


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(RUNNING))
    assert run(["-", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["p"] == 3


def test_hetero_mode(tmp_path, capsys):
    text = "problem: hetero\nm: 1\nn: 1\ns: 1\nC:\n0\nD:\n0\n"
    path = tmp_path / "h.txt"
    path.write_text(text)
    assert run([str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p"] == 1 and len(doc["cells"]) == 1


def test_eqb_mode(tmp_path, capsys):
    text = "problem: eqb\nm: 1\nn: 2\nA:\n1 2\nb:\n3\n"
    path = tmp_path / "e.txt"
    path.write_text(text)
    assert run([str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["problem"] == "eqb"
    assert doc["cells"]


STATS_CASES = {
    "eq": RUNNING,
    "eq-zero-rows": "problem: eq\nm: 0\nn: 2\nA:\nB:\n",
    "leq": "problem: leq\nm: 1\nn: 2\nA:\n0 1\nB:\n1 0\n",
    "eqb": "problem: eqb\nm: 1\nn: 2\nA:\n1 2\nb:\n3\n",
    "hetero": "problem: hetero\nm: 1\nn: 1\ns: 1\nC:\n0\nD:\n0\n",
    "hetero-zero-rows": "problem: hetero\nm: 1\nn: 2\ns: 0\nC:\nD:\n",
    "affine": AFFINE,
    "eqb-zero-rows": "problem: eqb\nm: 0\nn: 2\nA:\nb:\n",
    "affine-zero-rows": "problem: affine\nm: 0\nn: 2\nA:\nB:\na:\nb:\n",
}


@pytest.mark.parametrize("mode", ["eqb", "affine"])
def test_run_pinned_mode_zero_rows(mode, monkeypatch, capsys):
    import io

    text = STATS_CASES[f"{mode}-zero-rows"]
    inst = parse_instance(text)
    assert inst.vectors["b"] == () and inst.matrices["A"].rows == 0
    assert parse_instance(format_instance(inst)) == inst
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(["-", "--format", "json", "--check", "grid=0,1"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    # no rows: every x with x_{n+1} = 0 solves, one cell with both variables free
    assert doc["problem"] == mode and doc["p"] == 0 and not doc["no_solution"]
    assert [cell["assignments"] for cell in doc["cells"]] == [
        {"1": {"param": 1, "offset": "0"}, "2": {"param": 2, "offset": "0"}}
    ]
    assert '"invalid": 0, "missed": 0' in captured.err


def test_run_stats_same_keys_every_mode(monkeypatch, capsys):
    import io

    keys = {}
    for name, text in STATS_CASES.items():
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(["-", "--stats"]) == 0, name
        keys[name] = set(json.loads(capsys.readouterr().err.strip().splitlines()[-1]))
    assert {"enum_nodes", "scenarios", "collapsed"} <= keys["eq"]
    assert all(found == keys["eq"] for found in keys.values()), keys


@pytest.mark.parametrize(
    "text",
    [
        "problem: eq\nm: 1\nn: 0\nA:\n\nB:\n\n",
        "problem: eqb\nm: 1\nn: 0\nA:\n\nb:\n0\n",
        "problem: hetero\nm: 0\nn: 1\ns: 1\nC:\n0\nD:\n\n",
        "problem: hetero\nm: 1\nn: 0\ns: 1\nC:\n\nD:\n0\n",
    ],
    ids=["eq-n0", "eqb-n0", "hetero-m0", "hetero-n0"],
)
def test_run_zero_columns_is_a_parse_error(text, monkeypatch, capsys):
    import io

    with pytest.raises(ParseError, match="must be positive"):
        parse_instance(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(["-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "must be positive" in err
    assert "Traceback" not in err


BAD_CHECK_GRIDS = {
    "grid=1/0": "not a tropical scalar token: '1/0'",
    "grid=0,x": "not a tropical scalar token: 'x'",
    "grid=": "--check grid needs at least one value",
    "1,2": "--check expects grid=<v1,v2,...>",
    "grid=-inf": "grid values must be finite: -inf is a grid point already",
}


@pytest.mark.parametrize("grid", list(BAD_CHECK_GRIDS))
def test_run_bad_check_grid_exit_code(grid, tmp_path, capsys, monkeypatch):
    import tropsolve.cli as cli_mod

    def no_solve(inst):
        raise AssertionError("solved before --check was parsed")

    # a malformed --check is rejected before any solving
    monkeypatch.setattr(cli_mod, "_solve", no_solve)
    path = tmp_path / "inst.txt"
    path.write_text(RUNNING)
    assert run([str(path), "--check", grid]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {BAD_CHECK_GRIDS[grid]}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "token", ["1e5000", "7" * 5000, "1e999999999"], ids=["1e5000", "5000-digits", "1e999999999"]
)
def test_run_oversized_number_token_is_a_parse_error(token, monkeypatch, capsys):
    import io
    import time

    text = f"problem: eq\nm: 1\nn: 2\nA:\n0 {token}\nB:\n1 0\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    started = time.perf_counter()
    assert run(["-"]) == 1
    assert time.perf_counter() - started < 2.0
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 5: number token ")
    assert "MAX_TOKEN_DIGITS" in err and "Traceback" not in err
    assert len(err) < 200


@pytest.mark.parametrize(
    "grid", ["grid=1e999999999", "grid=0,1e5000", "grid=" + "7" * 5000],
    ids=["1e999999999", "1e5000", "5000-digits"],
)
def test_run_oversized_check_grid_token_is_an_error(grid, tmp_path):
    # a child process with a timeout, so that an unbounded Fraction fails
    # the test instead of hanging the suite
    path = tmp_path / "inst.txt"
    path.write_text("problem: eq\nm: 1\nn: 2\nA:\n0 1\nB:\n1 0\n")
    src = str(Path(tropsolve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tropsolve", str(path), "--check", grid],
        capture_output=True,
        text=True,
        env=env,
        timeout=20,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: number token ")
    assert "MAX_TOKEN_DIGITS" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "text, line, what",
    [
        ("problem: eq\nm: 1\nn: 2\nA:\n0 1\nB:\n1 0\nA:\n5 5\n", 8, "block 'A:'"),
        ("problem: eq\nm: 1\nn: 2\nA:\n0 1\nA:\n1 0\nB:\n1 0\n", 6, "block 'A:'"),
        ("problem: eq\nm: 1\nm: 2\nn: 2\nA:\n0 1\nB:\n1 0\n", 3, "header 'm:'"),
        ("problem: eq\nm: 1\nn: 2\nA:\n0 1\nB:\n1 0\nproblem: leq\n", 8, "header 'problem:'"),
        ("problem: eqb\nm: 1\nn: 2\nA:\n1 2\nb:\n3\nb:\n4\n", 8, "block 'b:'"),
    ],
    ids=["block-at-end", "block-twice-in-a-row", "header-m", "header-problem", "vector-block"],
)
def test_repeated_block_or_header_is_a_parse_error(text, line, what, monkeypatch, capsys):
    import io

    # a second block or header must not silently replace the first
    with pytest.raises(ParseError, match=f"repeated {what}") as err:
        parse_instance(text)
    assert err.value.line == line
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(["-"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"parse error: line {line}: repeated {what}")
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["yaml", "JSON", ""])
def test_emit_rejects_an_unknown_format(fmt, running_example):
    from tropsolve.reductions import AffineInstance, solve_affine
    from tropsolve import Matrix

    plain = solve(*running_example)
    pinned = solve_affine(AffineInstance(Matrix([[0]]), Matrix([[0]]), (0,), (1,)))
    for result in (plain, pinned):
        with pytest.raises(ValueError, match="unknown format"):
            emit(result, fmt)
    assert emit(plain, "text") == emit(plain)


def _pinned_doc_admits(doc, y):
    """Whether the rendered pinned cell, read as its 1-based text says, contains y."""
    at = {k + 1: v for k, v in enumerate(y)}
    named = [*doc["neg_inf"], *map(int, doc["fixed"]), *map(int, doc["assignments"])]
    assert sorted(named) == sorted(at), (doc, y)
    if any(at[k] is not NEG_INF for k in doc["neg_inf"]):
        return False
    for k, c in doc["fixed"].items():
        if at[int(k)] != Fraction(c):
            return False
    params = {}
    for k, item in doc["assignments"].items():
        v = at[int(k)]
        t = v if v is NEG_INF else v - Fraction(item["offset"])
        if params.setdefault(item["param"], t) != t:
            return False
    live = {p: t for p, t in params.items() if t is not NEG_INF}
    if any(int(p) not in live or live[int(p)] < Fraction(c) for p, c in doc["lower"].items()):
        return False
    if any(int(p) in live and live[int(p)] > Fraction(c) for p, c in doc["upper"].items()):
        return False
    for row in doc["constraints"]:
        if row["plus"] in live and (
            row["minus"] not in live
            or live[row["plus"]] - live[row["minus"]] + Fraction(row["const"]) > 0
        ):
            return False
    return True


def test_emit_pinned_cells_in_the_coordinates_of_their_vectors():
    from tropsolve import Matrix
    from tropsolve.reductions import PinnedSolutionSet, pin_variable

    base = solve(Matrix([[0, 1], [2, "-inf"]]), Matrix([[1, 0], ["-inf", 2]]))
    pinned = PinnedSolutionSet(base, (pin_variable(base.cells[0], 0, 0),), 1)
    assert json.loads(emit(pinned, "json"))["cells"][0]["fixed"] == {"1": "0"}
    assert emit(pinned, "text") == "problem: affine\np: 1\ncell 1:\n  x1 = 0\n"

    # every variable of every cell pinned in turn: the rendered cell names
    # the coordinates of PinnedCell.sample's points and contains them
    rng = random.Random(4711)
    forced = ("-inf",) * 4  # the second row forces x4 to -inf in every cell
    instances = [
        parse_instance(RUNNING).matrices.values(),
        (Matrix([[0, 1, 0, 2], [*forced[:3], 0]]), Matrix([[1, 0, "-inf", 0], forced])),
    ]
    for k in range(16):
        m, n = rng.randint(1, 3), rng.randint(3, 4)
        a, b = planted_rows(rng, m, n) if k % 2 else (random_rows(rng, m, n) for _ in "ab")
        instances.append((Matrix(a), Matrix(b)))
    seen = {"neg_inf": 0, "lower": 0, "upper": 0, "constraints": 0, "moved": 0}
    for a, b in instances:
        base = solve(a, b)
        for cell in base.cells:
            for var in range(cell.num_vars):
                pc = pin_variable(cell, var, Fraction(1, 2))
                if pc is None:
                    continue
                result = PinnedSolutionSet(base, (pc,), cell.num_vars - 1)
                doc = json.loads(emit(result, "json"))["cells"][0]
                text = emit(result, "text").splitlines()
                names = [line.split(" = ")[0].strip() for line in text if " = " in line]
                assert names == [f"x{k + 1}" for k in range(cell.num_vars - 1)]
                for y in pc.sample(6, seed=var, box=4):
                    assert _pinned_doc_admits(doc, y), (doc, y)
                for key in ("neg_inf", "lower", "upper", "constraints"):
                    seen[key] += bool(doc[key])
                seen["moved"] += var < cell.num_vars - 1
    assert all(seen.values()), seen


def test_emit_of_a_pinned_set_prints_its_own_mode():
    from tropsolve import Matrix
    from tropsolve.reductions import AffineInstance, solve_affine, solve_eq_b

    eqb = solve_eq_b(Matrix([[0, 1]]), ["1/2"])
    affine = solve_affine(AffineInstance(Matrix([[0]]), Matrix([[0]]), (0,), (1,)))
    assert (eqb.problem, affine.problem) == ("eqb", "affine")
    assert emit(eqb).startswith("problem: eqb\n")
    assert json.loads(emit(eqb, "json"))["problem"] == "eqb"
    assert emit(affine).startswith("problem: affine\n")
    assert json.loads(emit(affine, "json"))["problem"] == "affine"
