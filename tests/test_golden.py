"""Golden output: the exact ``--format json`` text of fixed instances.

The instances are the four worked examples of the README plus seeded
instances whose entries include the fractions 1/2, -3/2, 2/3 and 7/4, so the
solver's exact scaling runs with a common denominator above 1.  The expected
documents live in ``golden/cli_json.json``; any change to them is a change
of output and must be deliberate.  To rewrite them after such a change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from conftest import planted_rows, random_rows
from tropsolve.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_json.json"

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


def cases():
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
    for k in range(8):
        mode = MODES[k % len(MODES)]
        out.append((f"{mode}-{k}", _mode_text(rng, mode), []))
    return out


def cli_json(text, flags):
    """Exit code and stdout of the CLI run on the instance text via stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = run(["-", "--format", "json", *flags])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def test_golden_covers_every_case():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(name for name, _, _ in cases())


@pytest.mark.parametrize("name,text,flags", cases(), ids=[c[0] for c in cases()])
def test_golden_json(name, text, flags):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    code, out = cli_json(text, flags)
    assert code == 0
    assert out == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    docs = {}
    for name, text, flags in cases():
        code, out = cli_json(text, flags)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        docs[name] = out
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(docs)} documents to {GOLDEN}")
