"""Golden output: the exact ``--format json`` and ``--format text`` output of
fixed instances.

The instances are the four worked examples of the README, seeded instances
whose entries include the fractions 1/2, -3/2, 2/3 and 7/4 (so the solver's
exact scaling runs with a common denominator above 1), seeded instances
whose silencing scenarios reduce to maximum matrices over different
denominators (one column alone carries thirds, a row links it to a column
of halves), and two instances without rows (``eq`` with ``m: 0``,
``hetero`` with ``s: 0``).  Every case
is pinned in both formats; a text entry is named after its JSON entry plus
`` --format text``.  The expected outputs live in ``golden/cli_json.json``;
any change to them is a change of output and must be deliberate.  The
``--stats`` counters (``p``, ``enum_nodes``, ``scenarios``, ``collapsed``;
timings dropped) of every plain ``eq`` case are pinned the same way in
``golden/eq_stats.json``, so that a faster cell stage that changes how many
sequences or scenarios it visits fails here.  To rewrite both files after
such a change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tropsolve.cells as cells_mod
from conftest import pair_scale, planted_rows, random_rows
from tropsolve import NEG_INF, Matrix, solve
from tropsolve.cli import run
from tropsolve.core import common_denominator

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_json.json"
STATS = GOLDEN.with_name("eq_stats.json")

FIXTURES = {
    "running": (
        [["3", "7", "-1", "-inf"], ["6", "7", "-inf", "-inf"], ["1", "0", "1", "-inf"]],
        [["-inf", "-inf", "-inf", "8"], ["-inf", "-inf", "5", "1"], ["1", "0", "1", "2"]],
    ),
    "empty-case": (
        [["3", "7", "-1", "-inf"], ["6", "7", "-inf", "-inf"], ["-9", "0", "0", "-inf"]],
        [["-inf", "-inf", "-inf", "8"], ["-inf", "-inf", "5", "1"], ["-9", "0", "-inf", "-4"]],
    ),
    "three-by-three": (
        [["1", "3", "-inf"], ["5", "0", "-inf"], ["-inf", "3", "-inf"]],
        [["-inf", "-inf", "3"], ["5", "0", "2"], ["3", "-inf", "2"]],
    ),
    "two-by-seven": (
        [["-inf", "-inf", "-inf", "0", "4", "2", "6"], ["-inf", "5", "6", "-inf", "-inf", "-inf", "2"]],
        [["0", "1", "5", "-inf", "-inf", "-inf", "-inf"], ["3", "-inf", "-inf", "0", "2", "4", "-inf"]],
    ),
}

SEEDED_EQ = 20
MODES = ("leq", "eqb", "hetero", "affine")

MULTI_SCALE_EQ = 20
THIRDS = (Fraction(1, 3), Fraction(-2, 3), Fraction(4, 3), NEG_INF)
HALVES = (Fraction(1, 2), Fraction(-3, 2), Fraction(0), Fraction(2), NEG_INF)


def multi_scale_rows(rng, m, n):
    """A and B rows where column 1 alone carries thirds.

    Row 1 is finite only in column 1 of A and column 2 of B, so its
    silencing scenario forces both columns to -inf and leaves a maximum
    matrix over halves, while the root instance has thirds as well.
    """
    a, b = (
        [[rng.choice(THIRDS if j == 0 else HALVES) for j in range(n)] for _ in range(m)]
        for _ in range(2)
    )
    a[0] = [rng.choice(THIRDS[:3])] + [NEG_INF] * (n - 1)
    b[0] = [NEG_INF, rng.choice(HALVES[:4])] + [NEG_INF] * (n - 2)
    return a, b


def multi_scale_pairs():
    rng = random.Random(8)
    out = []
    for _ in range(MULTI_SCALE_EQ):
        m, n = rng.randint(2, 3), rng.randint(4, 5)
        out.append(multi_scale_rows(rng, m, n))
    return out


def _block(name, rows):
    return [f"{name}:"] + [" ".join(map(str, row)) for row in rows]


def _eq_text(a, b):
    head = ["problem: eq", f"m: {len(a)}", f"n: {len(a[0])}"]
    return "\n".join(head + _block("A", a) + _block("B", b)) + "\n"


def _mode_text(rng, mode):
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    head = [f"problem: {mode}", f"m: {m}", f"n: {n}"]
    if mode == "leq":
        body = _block("A", random_rows(rng, m, n)) + _block("B", random_rows(rng, m, n))
    elif mode == "eqb":
        body = _block("A", random_rows(rng, m, n)) + _block("b", random_rows(rng, 1, m))
    elif mode == "hetero":
        s = rng.randint(1, 3)
        head.append(f"s: {s}")
        body = _block("C", random_rows(rng, s, n)) + _block("D", random_rows(rng, s, m))
    else:
        body = (
            _block("A", random_rows(rng, m, n))
            + _block("B", random_rows(rng, m, n))
            + _block("a", random_rows(rng, 1, m))
            + _block("b", random_rows(rng, 1, m))
        )
    return "\n".join(head + body) + "\n"


ZERO_ROWS = {
    "eq-zero-rows": "problem: eq\nm: 0\nn: 2\nA:\nB:\n",
    "hetero-zero-rows": "problem: hetero\nm: 1\nn: 2\ns: 0\nC:\nD:\n",
}


def json_cases():
    """(name, instance text, extra CLI flags), in a fixed order."""
    out = []
    for name, (a, b) in FIXTURES.items():
        out.append((name, _eq_text(a, b), []))
        out.append((f"{name} --dedupe", _eq_text(a, b), ["--dedupe"]))
    rng = random.Random(20240417)
    for k in range(SEEDED_EQ):
        m, n = rng.randint(2, 4), rng.randint(3, 5)
        pair = planted_rows(rng, m, n) if k % 2 == 0 else (random_rows(rng, m, n), random_rows(rng, m, n))
        text = _eq_text(*pair)
        out.append((f"eq-{k}", text, []))
        out.append((f"eq-{k} --dedupe", text, ["--dedupe"]))
    for k, pair in enumerate(multi_scale_pairs()):
        text = _eq_text(*pair)
        out.append((f"eq-mixed-scale-{k}", text, []))
        out.append((f"eq-mixed-scale-{k} --dedupe", text, ["--dedupe"]))
    for k in range(8):
        mode = MODES[k % len(MODES)]
        out.append((f"{mode}-{k}", _mode_text(rng, mode), []))
    out.extend((name, text, []) for name, text in ZERO_ROWS.items())
    return out


def text_cases():
    """The text twin of every JSON case, named after it."""
    return [(f"{name} --format text", text, flags) for name, text, flags in json_cases()]


def cli_output(text, flags):
    """Exit code and stdout of the CLI run on the instance text via stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = run(["-", *flags])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def stats_cases():
    """(name, instance text) of every eq case without flags."""
    return [
        (name, text) for name, text, flags in json_cases()
        if not flags and text.startswith("problem: eq\n")
    ]


def cli_stats(text):
    """The --stats record of the CLI run on the instance text, without timings."""
    err = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["-", "--format", "json", "--stats"])
    finally:
        sys.stdin = saved
    assert code == 0
    record = json.loads(err.getvalue().splitlines()[-1])
    return {k: v for k, v in record.items() if not k.startswith("time_")}


def cases():
    """(name, instance text, CLI flags) of every pinned output."""
    return [(name, text, ["--format", "json", *flags]) for name, text, flags in json_cases()] + [
        (name, text, ["--format", "text", *flags]) for name, text, flags in text_cases()
    ]


def _check(name, text, flags):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    code, out = cli_output(text, flags)
    assert code == 0
    assert out == expected


def test_golden_covers_every_case():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(name for name, _, _ in cases())


@pytest.mark.parametrize("name,text,flags", json_cases(), ids=[c[0] for c in json_cases()])
def test_golden_json(name, text, flags):
    _check(name, text, ["--format", "json", *flags])


@pytest.mark.parametrize("name,text,flags", text_cases(), ids=[c[0] for c in json_cases()])
def test_golden_text(name, text, flags):
    _check(name, text, ["--format", "text", *flags])


def test_golden_stats_cover_every_eq_case():
    expected = json.loads(STATS.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(name for name, _ in stats_cases())
    assert len(expected) >= 45


@pytest.mark.parametrize("name,text", stats_cases(), ids=[c[0] for c in stats_cases()])
def test_golden_stats(name, text):
    expected = json.loads(STATS.read_text(encoding="utf-8"))[name]
    assert cli_stats(text) == expected


def _scenario_denominators(monkeypatch, a, b):
    """The denominators of the reduced maximum matrices of solve's scenarios."""
    original = cells_mod.reduce_instance
    scale = pair_scale(a, b)
    seen = set()

    def recording(*args, **kwargs):
        red = original(*args, **kwargs)
        if red.scaled_max:
            seen.add(common_denominator(
                Fraction(v, scale) for row in red.scaled_max for v in row if v is not None
            ))
        return red

    monkeypatch.setattr(cells_mod, "reduce_instance", recording)
    result = solve(a, b)
    monkeypatch.setattr(cells_mod, "reduce_instance", original)
    return seen, result


def test_multi_scale_cases_mix_scales(monkeypatch):
    mixed = 0
    cells_seen = 0
    for a, b in multi_scale_pairs():
        n = len(a[0])
        seen, result = _scenario_denominators(monkeypatch, Matrix(a, cols=n), Matrix(b, cols=n))
        if len(seen) > 1:
            mixed += 1
            cells_seen += len(result.cells)
    assert mixed >= 10
    assert cells_seen >= 20


def _fraction_key(cell):
    """The cell's order key in Fractions, read from its views."""
    return (
        cell.win_sequence,
        tuple(sorted(cell.neg_inf)),
        tuple(sorted((v, p, o) for v, (p, o) in cell.assignments.items())),
        tuple((c.plus, c.minus, c.constant) for c in cell.constraints),
    )


def test_multi_scale_cells_sorted_by_fraction_key():
    for a, b in multi_scale_pairs():
        n = len(a[0])
        cells = solve(Matrix(a, cols=n), Matrix(b, cols=n)).cells
        keys = [_fraction_key(c) for c in cells]
        assert all(
            type(o) is Fraction for c in cells for _, o in c.assignments.values()
        )
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    docs = {}
    for name, text, flags in cases():
        code, out = cli_output(text, flags)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        docs[name] = out
    stats = {name: cli_stats(text) for name, text in stats_cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    STATS.write_text(json.dumps(stats, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(docs)} documents to {GOLDEN} and {len(stats)} to {STATS}")
