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
sequences or scenarios it visits fails here.  ``golden/digests.json`` pins
a larger seeded pool by digest (see the digests section below).  To
rewrite all three files after such a change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import tropsolve.cells as cells_mod
from conftest import pair_scale, planted_rows, random_rows, ref_public, ref_unit, typed
from tropsolve import NEG_INF, Matrix, emit, solve
from tropsolve.cells import SolutionSet
from tropsolve.cli import _dedupe, _solve, parse_instance, run
from tropsolve.reductions import PinnedSolutionSet, pin_variable

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_json.json"
STATS = GOLDEN.with_name("eq_stats.json")
DIGESTS = GOLDEN.with_name("digests.json")

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
    return _instance("eq", {"A": a, "B": b})


def _instance(mode, blocks):
    """Instance text of the mode from its named blocks of rows."""
    if mode == "hetero":
        head = [f"m: {len(blocks['D'][0])}", f"n: {len(blocks['C'][0])}", f"s: {len(blocks['C'])}"]
    else:
        head = [f"m: {len(blocks['A'])}", f"n: {len(blocks['A'][0])}"]
    body = [line for name, rows in blocks.items() for line in _block(name, rows)]
    return "\n".join([f"problem: {mode}", *head, *body]) + "\n"


def _blocks(rng, mode, m, n):
    """A, then B, a and b as the mode (not hetero) has them, drawn by random_rows."""
    blocks = {"A": random_rows(rng, m, n)}
    if mode != "eqb":
        blocks["B"] = random_rows(rng, m, n)
    if mode == "affine":
        blocks["a"] = random_rows(rng, 1, m)
    if mode in ("eqb", "affine"):
        blocks["b"] = random_rows(rng, 1, m)
    return blocks


def _mode_text(rng, mode):
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    if mode == "hetero":
        s = rng.randint(1, 3)
        return _instance(mode, {"C": random_rows(rng, s, n), "D": random_rows(rng, s, m)})
    return _instance(mode, _blocks(rng, mode, m, n))


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

    def recording(masks, *args, **kwargs):
        red = original(masks, *args, **kwargs)
        if red.rows:
            seen.add(ref_unit(
                Fraction(v, scale)
                for i in red.rows
                for j, v in enumerate(masks.maximum[i])
                if red.live >> j & 1 and v is not None
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
    kinds = set()
    for a, b in multi_scale_pairs():
        n = len(a[0])
        cells = solve(Matrix(a, cols=n), Matrix(b, cols=n)).cells
        keys = [_fraction_key(c) for c in cells]
        offsets = [o for c in cells for _, o in c.assignments.values()]
        assert typed(offsets) == typed(map(ref_public, offsets))
        kinds |= {type(o) for o in offsets}
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
    assert kinds == {int, Fraction}


# ------------------------------------------------------------ digests
#
# digests.json pins a seeded pool drawn through solve, the CLI's solve of
# every mode, --dedupe and pin_variable: per instance, a 16-hex-digit
# sha256 of its output (json, and text where TEXT_FAMILIES says), then p,
# enum_nodes, scenarios and collapsed of its base result.


def planted_ints(rng, m, n, p_inf, plant):
    """Int rows of A and B with -inf at density p_inf; if plant, a drawn x solves them."""

    def entry():
        return NEG_INF if rng.random() < p_inf else rng.randint(-5, 5)

    a = [[entry() for _ in range(n)] for _ in range(m)]
    b = [[entry() for _ in range(n)] for _ in range(m)]
    if plant:
        x = [rng.randint(-4, 4) for _ in range(n)]
        for i in range(m):
            sides = [a[i], b[i]]
            rng.shuffle(sides)
            low, high = sides
            k = rng.randrange(n)
            tops = [v + x[j] for j, v in enumerate(high) if v is not NEG_INF]
            if not tops:
                high[k] = -x[k]
                tops = [0]
            low_tops = [v + x[j] for j, v in enumerate(low) if v is not NEG_INF]
            if not low_tops or max(low_tops) < max(tops):
                low[k] = max(tops) - x[k]
            else:
                high[k] = max(low_tops) - x[k]
    return a, b


def _solved(text):
    """The result the CLI computes for the instance text of any mode, with its stats."""
    return _solve(parse_instance(text))[0]


def _eq(a, b):
    """(instance text, [solve's result]) of a pair of rows."""
    n = len(a[0])
    return _eq_text(a, b), [solve(Matrix(a, cols=n), Matrix(b, cols=n), collect_stats=True)]


def wide_draws(seed, wide, shape, mixed):
    """Planted all-finite 3x8 pairs, pairs at -inf density 0.3 (every other
    one planted) and planted rational pairs, whose scale is above 1."""
    rng = random.Random(seed)
    pairs = [planted_ints(rng, 3, 8, 0.0, True) for _ in range(wide)]
    pairs += [planted_ints(rng, *shape(rng), 0.3, k % 2 == 0) for k in range(mixed)]
    pairs += [planted_rows(rng, rng.randint(2, 4), rng.randint(3, 6)) for _ in range(30)]
    return [_eq(a, b) for a, b in pairs]


SPARSE_VALUES = (Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), 0, 1, 2, -1)


def sparse_draws():
    """Sparse rows: columns left free, forced, and kept through silencing."""
    rng = random.Random(5150)
    out = []
    for _ in range(1500):
        m, n = rng.randint(2, 4), rng.randint(3, 7)
        density = rng.choice((0.3, 0.5, 0.7))
        out.append(_eq(*(
            [[NEG_INF if rng.random() < density else rng.choice(SPARSE_VALUES) for _ in range(n)]
             for _ in range(m)]
            for _ in "ab"
        )))
    return out


def small_int_draws():
    rng = random.Random(1616)
    out = []
    for _ in range(120):
        m, n = rng.randint(1, 4), rng.randint(2, 6)
        out.append(_eq(*(
            [[rng.choice((NEG_INF, 0, 1, 2, 3, -2)) for _ in range(n)] for _ in range(m)]
            for _ in "ab"
        )))
    return out


def mode_result(rng, mode):
    """(instance text, result) of a seeded instance of the mode, drawn by random_rows."""
    m, n = rng.randint(1, 3), rng.randint(2, 4)
    if mode == "eq" and rng.random() < 0.5:
        blocks = dict(zip("AB", planted_rows(rng, m, n)))
    elif mode == "hetero":
        blocks = {"C": random_rows(rng, m, n)}
        blocks["D"] = random_rows(rng, m, rng.randint(1, 3))
    else:
        blocks = _blocks(rng, mode, m, n)
    text = _instance(mode, blocks)
    return text, _solved(text)


def mode_draws():
    """Every mode in turn; a plain set is digested with and without --dedupe."""
    rng = random.Random(1500)
    out = []
    for trial in range(250):
        text, result = mode_result(rng, ("eq", "leq", "hetero", "eqb", "affine")[trial % 5])
        deduped = [_dedupe(result)] if isinstance(result, SolutionSet) else []
        out.append((text, [result, *deduped]))
    return out


def dedupe_draws():
    rng = random.Random(1501)
    out = []
    for _ in range(120):
        text, result = mode_result(rng, rng.choice(("eq", "leq", "hetero")))
        out.append((text + "--dedupe\n", [_dedupe(result)]))
    return out


def _pinned(base, var, value, problem="affine"):
    cells = (pin_variable(cell, var, value) for cell in base.cells)
    return PinnedSolutionSet(base, tuple(c for c in cells if c), base.num_vars - 1, problem)


def pinned_everywhere_draws():
    """Solution sets of eq cells pinned on each variable in turn, not only the last."""
    rng = random.Random(1502)
    out = []
    for _ in range(80):
        text, base = mode_result(rng, "eq")
        results = []
        for var in range(base.num_vars):
            value = rng.choice((Fraction(0), Fraction(1, 2), Fraction(-7, 3)))
            results.append(_pinned(base, var, value, rng.choice(("affine", "eqb"))))
            text += f"pin x{var + 1} = {value} ({results[-1].problem})\n"
        out.append((text, results))
    return out


# Entries over halves and thirds: the base cells have scales 1, 2, 3 and 6.
HALVES_AND_THIRDS = (NEG_INF, Fraction(0), Fraction(1, 2), Fraction(-3, 2),
                     Fraction(2, 3), Fraction(-1, 3), Fraction(1))


def _thirds(rng, m, n):
    return [[rng.choice(HALVES_AND_THIRDS) for _ in range(n)] for _ in range(m)]


def pin_draws():
    """Every variable of every cell pinned to 0, 1/2, 1/3 and -7/4."""
    rng = random.Random(5100)
    out = []
    for _ in range(80):
        m, n = rng.randint(1, 3), rng.randint(2, 4)
        text, (base,) = _eq(_thirds(rng, m, n), _thirds(rng, m, n))
        values = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(-7, 4))
        out.append((text, [_pinned(base, var, v) for var in range(n) for v in values]))
    return out


def affine_draws():
    rng = random.Random(5200)
    out = []
    for _ in range(80):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        shapes = {"A": (m, n), "B": (m, n), "a": (1, m), "b": (1, m)}
        text = _instance("affine", {name: _thirds(rng, *shape) for name, shape in shapes.items()})
        out.append((text, [_solved(text)]))
    return out


FAMILIES = {
    "wide-7x7-rational": lambda: wide_draws("reduced-form", 60, lambda rng: (7, 7), 60),
    "wide-mixed-rational": lambda: wide_draws(
        "one-pass-key", 50, lambda rng: (rng.randint(3, 6), rng.randint(4, 7)), 80
    ),
    "sparse": sparse_draws,
    "small-int": small_int_draws,
    "modes": mode_draws,
    "dedupe": dedupe_draws,
    "pinned-everywhere": pinned_everywhere_draws,
    "pin": pin_draws,
    "affine": affine_draws,
}
# The families drawn through every mode also pin the text layout; the
# others pin --format json, the document the text is laid out from.
TEXT_FAMILIES = {"modes", "dedupe", "pinned-everywhere", "pin", "affine"}


def digest(results, formats=("json", "text")):
    """The sha256 prefix of the results' output, then the counts of the first's base."""
    out = "".join(emit(r, fmt) for r in results for fmt in formats)
    base = getattr(results[0], "base", results[0])
    counts = (base.win_sequence_count, base.stats.enum_nodes, base.stats.scenarios,
              base.stats.collapsed)
    return " ".join([hashlib.sha256(out.encode()).hexdigest()[:16], *map(str, counts)])


def _observe(seen, results):
    """Count what the pool reaches in its outputs."""
    base = getattr(results[0], "base", results[0])
    seen["collapsed"] += base.stats.collapsed
    seen["multi-scenario solves"] += base.stats.scenarios > 1
    for r in results:
        if isinstance(r, SolutionSet):
            seen["trivial only"] += r.trivial_only
            seen["forced everywhere"] += bool(r.globally_forced) and not r.trivial_only
            seen["cells"] += len(r.cells)
            seen["cells at scale > 1"] += sum(cell.scale > 1 for cell in r.cells)
            continue
        for pc in r.cells:
            seen["pinned cells"] += 1
            seen["pinned, fixed"] += bool(pc.fixed)
            seen["pinned, both bounds"] += bool({p for p, _ in pc.lower} & {p for p, _ in pc.upper})
            seen["pinned, rows"] += bool(pc.rows)
            seen["pinned, moved"] += pc.pinned_var < pc.num_vars and bool(pc.assigned)


def _hooks(seen):
    """Pass-through wrappers of the cell stage's steps that count what they meet."""

    def reduce_instance(original, masks, dead=0):
        red = original(masks, dead)
        seen["reduced" if red.rows else "unconstrained" if red.free else "trivial"] += 1
        if red.rows and red.live != (1 << masks.n) - 1:
            seen["kept rows on fewer columns"] += 1
            seen["..., silenced"] += bool(dead)
            seen["..., forced"] += bool(red.forced & ~dead)
            seen["..., free"] += bool(red.free)
        return red

    def substitute(original, rows, uf):
        t, flagged = original(rows, uf)
        seen["flagged rounds"] += bool(flagged)
        return t, flagged

    def sub_specialize(original, t):
        eqs, residue, forced = original(t)
        # the core read off the array's entries, not off its heads and tails
        n, _, entries, _, _ = t
        core = len({e // n for e in entries} & {e % n for e in entries})
        seen["rounds"] += 1
        seen["core 2" if core == 2 else "core 3+" if core > 2 else "core 0"] += 1
        seen["forcing rounds"] += bool(forced)
        seen["zero-width rounds"] += bool(eqs)
        return eqs, residue, forced

    def _solve_sequence(original, *args):
        before = seen["rounds"]
        solved = original(*args)
        seen["sequences of several rounds"] += seen["rounds"] - before > 1
        seen["inconsistent sequences"] += bool(solved[0].inconsistent_roots)
        return solved

    return [reduce_instance, substitute, sub_specialize, _solve_sequence]


@functools.cache
def digest_run():
    """{family: [(instance text, digest)]} and the counts that the pool reached.

    The cell stage's steps are wrapped while the pool is solved, to count
    reduction outcomes, scenarios kept on fewer than all columns, forcing
    and zero-width rounds, cyclic cores of 2 and of 3 or more, flagged and
    inconsistent components, and sequences of several rounds.
    """
    seen = Counter()
    originals = {}
    try:
        for hook in _hooks(seen):
            original = originals[hook.__name__] = getattr(cells_mod, hook.__name__)
            setattr(cells_mod, hook.__name__, functools.partial(hook, original))
        out = {}
        for family, draws in FAMILIES.items():
            out[family] = []
            formats = ("json", "text") if family in TEXT_FAMILIES else ("json",)
            for text, results in draws():
                out[family].append((text, digest(results, formats)))
                _observe(seen, results)
    finally:
        for name, original in originals.items():
            setattr(cells_mod, name, original)
    return out, seen


def test_digests_cover_every_family():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got, _ = digest_run()
    assert {f: len(v) for f, v in expected.items()} == {f: len(v) for f, v in got.items()}


@pytest.mark.parametrize("family", FAMILIES)
def test_digest(family):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[family]
    got, _ = digest_run()
    for index, ((text, line), want) in enumerate(zip(got[family], expected)):
        assert line == want, f"{family}[{index}]: digest {line}, pinned {want}, on\n{text}"


DIGEST_FLOORS = {
    "reduced": 500, "unconstrained": 400, "trivial": 500, "kept rows on fewer columns": 200,
    "..., silenced": 50, "..., forced": 50, "..., free": 50, "forcing rounds": 300,
    "zero-width rounds": 500, "core 2": 1500, "core 3+": 400, "flagged rounds": 150,
    "inconsistent sequences": 150, "sequences of several rounds": 1000, "cells": 3000,
    "cells at scale > 1": 100, "collapsed": 800, "multi-scenario solves": 500,
    "trivial only": 50, "forced everywhere": 50, "pinned cells": 1000, "pinned, fixed": 100,
    "pinned, both bounds": 20, "pinned, rows": 100, "pinned, moved": 100,
}


def test_digest_pool_reaches_every_floor():
    _, seen = digest_run()
    assert all(seen[name] >= floor for name, floor in DIGEST_FLOORS.items()), seen


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
    digests = {family: [line for _, line in lines] for family, lines in digest_run()[0].items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    STATS.write_text(json.dumps(stats, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(docs)} documents to {GOLDEN}, {len(stats)} to {STATS}"
          f" and {sum(map(len, digests.values()))} digests to {DIGESTS}")
