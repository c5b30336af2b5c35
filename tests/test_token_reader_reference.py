"""The number-token reader against the one it replaced.

core.as_scalar reads a plain ASCII integer literal (an optional sign and at
most MAX_TOKEN_DIGITS decimal digits) with int(); every other token goes
through the size check and Fraction, as before.  ref_entry below is the
previous reader, which sent every token through Fraction.  The tests check
that the two read every token alike: the same value from as_scalar, in the
type of the number contract (conftest.ref_public: an int when integral, a
Fraction otherwise), the same error, the same parse of an instance file
and the same grid from GridSpec.of.  Then a spelling-metamorphic test runs
the command line on instances whose integers are spelled in other ways, and
a guard checks that integer instances are parsed without building a
Fraction.
"""

from __future__ import annotations

import io
import random
from collections import Counter
from fractions import Fraction

import pytest

import tropsolve.cli as cli
from conftest import NI, ref_public, result_of, typed
from test_golden import FIXTURES
from tropsolve.core import MAX_TOKEN_DIGITS, NEG_INF, _check_token_size, as_scalar
from tropsolve.oracle import GridSpec


def ref_entry(value):
    """The previous reader: every string token but -inf through Fraction."""
    if value.__class__ is int or value is NEG_INF:
        return value
    if isinstance(value, str):
        text = value.strip()
        if text in ("-inf", "-oo"):
            return NEG_INF
        _check_token_size(text)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a tropical scalar token: {value!r}") from exc
    if isinstance(value, bool):
        raise TypeError("bool is not a tropical scalar")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a string or Fraction")
    raise TypeError(f"cannot coerce {type(value).__name__} to a tropical scalar")


def ref_as_scalar(value):
    v = ref_entry(value)
    return Fraction(v) if isinstance(v, int) else v


def ref_grid_of(values):
    """GridSpec.of as it was: every value through as_scalar, then sort and dedupe."""
    points = sorted(map(ref_as_scalar, values))
    return GridSpec(tuple(v for i, v in enumerate(points) if i == 0 or v != points[i - 1]))


EDGE_TOKENS = (
    "+0", "-0", "007", "1" * MAX_TOKEN_DIGITS, "1" * (MAX_TOKEN_DIGITS + 1),
    "-" + "9" * MAX_TOKEN_DIGITS, "+" + "9" * (MAX_TOKEN_DIGITS + 1),
    "\u0663", "\u00b2", "1_0", "2.50", "1e3", "-7/2", "1/0", "-inf", "-oo", "x",
    "0x1", "nan", "", "+", "-", "+-1", "--1", " 12 ", "\t-3\n", "1 2", "3/1",
    "\u0661\u0662", "1\u0663", "-\u0663", "\uff11", "1.", ".5", "1e", "inf", "12#",
)

_PIECES = (
    "0", "1", "7", "42", "007", "9" * 30, "\u0663", "\u00b2", "\uff17", "_", ".", "e",
    "E", "-", "+", "/", " ", "e-2", "x", "inf",
)


def corpus(seed: int = 1729, count: int = 3000) -> list[str]:
    """Seeded tokens: mostly integer-like, with signs, padding and stray pieces."""
    rng = random.Random(seed)
    out = list(EDGE_TOKENS)
    for _ in range(count):
        shape = rng.random()
        if shape < 0.5:  # an integer literal, near or beyond the digit bound
            width = rng.choice((1, 2, 3, MAX_TOKEN_DIGITS - 1, MAX_TOKEN_DIGITS,
                                MAX_TOKEN_DIGITS + 1))
            digits = "".join(rng.choice("0123456789") for _ in range(width))
            token = rng.choice(("", "", "+", "-")) + digits
        else:
            token = "".join(rng.choice(_PIECES) for _ in range(rng.randint(1, 4)))
        if rng.random() < 0.2:
            token = rng.choice((" ", "\t", "\u00a0")) + token + rng.choice(("", " "))
        out.append(token)
    return out


def _public(result):
    """A result_of outcome with its value as the number contract has it."""
    if result[0] == "raised":
        return result
    value = ref_public(result[2])
    return ("ok", type(value), value)


def test_the_corpus_meets_both_readers(fraction_builds):
    """"int" counts the tokens read without a Fraction, "Fraction" those read by one."""
    kinds = Counter()
    for token in corpus():
        fraction_builds.clear()
        status, kind, _ = result_of(as_scalar, token)
        kinds["Fraction" if status == "ok" and fraction_builds else kind.__name__] += 1
    assert kinds["int"] >= 800 and kinds["Fraction"] >= 100, kinds
    assert kinds["TokenTooLarge"] >= 200 and kinds["ValueError"] >= 500, kinds


def test_as_scalar_reads_every_token_as_before():
    for token in corpus():
        assert result_of(as_scalar, token) == _public(result_of(ref_as_scalar, token)), repr(token)


def test_entry_reads_integer_literals_as_ints():
    assert [as_scalar(t) for t in ("+0", "-0", "007", " -12 ")] == [0, 0, 7, -12]
    assert all(type(as_scalar(t)) is int for t in ("+0", "-0", "007", "1" * MAX_TOKEN_DIGITS))
    # an integral value spelled otherwise is read by Fraction, then handed out as an int
    for token in ("\u0663", "1e3", "3/1", "2.00"):
        assert type(as_scalar(token)) is int, token
    for token in ("2.50", "-7/2", "1e-3"):
        assert type(as_scalar(token)) is Fraction, token


def _instance(token: str) -> str:
    """An affine instance with the token in a matrix block and a vector block."""
    return (
        "problem: affine\nm: 2\nn: 2\n"
        f"A:\n{token} 1\n-inf 0\nB:\n0 -1\n1 {token}\n"
        f"a:\n{token} 0\nb:\n1 -inf\n"
    )


def _parsed(inst):
    """An InstanceFile as comparable data: matrices in ints, vectors by value."""
    return (
        inst.problem, inst.m, inst.n, inst.s,
        {k: (m.cols, m.unit, m.ints) for k, m in inst.matrices.items()},
        inst.vectors,
    )


def _parse_outcome(token: str):
    """("ok", the parsed instance as data) or ("error", line, message)."""
    try:
        return ("ok", _parsed(cli.parse_instance(_instance(token))))
    except cli.ParseError as exc:
        return ("error", exc.line, str(exc))


def test_parse_instance_reads_every_token_as_before(monkeypatch):
    tokens = corpus(count=1500)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "as_scalar", ref_as_scalar)
        expected = [_parse_outcome(t) for t in tokens]
    assert {e[0] for e in expected} == {"ok", "error"}
    for token, before in zip(tokens, expected):
        assert _parse_outcome(token) == before, repr(token)


def test_grid_spec_of_reads_every_value_list_as_before():
    rng = random.Random(4242)
    tokens = corpus(count=1000)
    values = [1, -3, 0, Fraction(1, 2), Fraction(4, 2), 0.5, True, NEG_INF, None]
    lists = [[t] for t in EDGE_TOKENS] + [[]]
    for _ in range(1500):
        lists.append([rng.choice(tokens if rng.random() < 0.8 else values)
                      for _ in range(rng.randint(1, 5))])
    seen = set()
    for vals in lists:
        now, before = result_of(GridSpec.of, vals), result_of(ref_grid_of, vals)
        assert now == before, vals
        if now[0] == "ok":
            points = sorted(set(map(ref_as_scalar, vals)))
            assert typed(now[2].values) == typed(map(ref_public, points)), vals
        seen.add(now[0])
    assert seen == {"ok", "raised"}


# ------------------------------------------------ spellings through the CLI

CHECK = ("--check", "grid=-3,-1,0,1,3")


def _spellings(k: int) -> tuple[str, ...]:
    sign = "-" if k < 0 else "+"
    return (str(k), f"{sign}{abs(k)}", f"{'-' if k < 0 else ''}0{abs(k)}",
            f"{k}/1", f"{k}.0", f"{k}e0")


def _respell(text: str, rng: random.Random) -> str:
    """The instance with every matrix and vector integer spelled at random."""
    out = []
    for line in text.splitlines():
        if ":" in line:
            out.append(line)
            continue
        out.append(" ".join(t if t == NI else rng.choice(_spellings(int(t)))
                            for t in line.split()))
    return "\n".join(out) + "\n"


def _block(rng, rows, cols):
    return "".join(
        " ".join(NI if rng.random() < 0.3 else str(rng.randint(-3, 3)) for _ in range(cols)) + "\n"
        for _ in range(rows)
    )


def _seeded_instance(rng, mode):
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    if mode == "hetero":
        s = rng.randint(1, 3)
        return (f"problem: hetero\nm: {m}\nn: {n}\ns: {s}\n"
                f"C:\n{_block(rng, s, n)}D:\n{_block(rng, s, m)}")
    text = f"problem: {mode}\nm: {m}\nn: {n}\nA:\n{_block(rng, m, n)}"
    if mode in ("eq", "leq", "affine"):
        text += f"B:\n{_block(rng, m, n)}"
    if mode == "affine":
        text += f"a:\n{_block(rng, 1, m)}"
    if mode in ("eqb", "affine"):
        text += f"b:\n{_block(rng, 1, m)}"
    return text


def _fixture_texts():
    """The README's four worked examples as eq instance files."""
    for a, b in FIXTURES.values():
        yield (f"problem: eq\nm: {len(a)}\nn: {len(a[0])}\n"
               + "A:\n" + "".join(" ".join(r) + "\n" for r in a)
               + "B:\n" + "".join(" ".join(r) + "\n" for r in b))


def _instances():
    rng = random.Random(2025)
    texts = list(_fixture_texts())
    for mode in cli.PROBLEMS:
        texts += [_seeded_instance(rng, mode) for _ in range(6)]
    return texts


def _run(text, fmt, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = cli.run(["-", "--format", fmt, *CHECK])
    captured = capsys.readouterr()
    checks = [line for line in captured.err.splitlines() if line.startswith("check: ")]
    return code, captured.out, checks


def test_integer_spellings_give_byte_identical_output(monkeypatch, capsys):
    rng = random.Random(31337)
    mixed = 0
    for text in _instances():
        for fmt in ("json", "text"):
            expected = _run(text, fmt, monkeypatch, capsys)
            assert expected[0] == 0 and len(expected[2]) == 1
            for _ in range(2):
                respelled = _respell(text, rng)
                inst = cli.parse_instance(respelled)
                assert inst == cli.parse_instance(text)
                # a line mixing plain integer literals with other spellings
                mixed += any(
                    len({t.lstrip("+-").isdigit() for t in line.split() if t != NI}) == 2
                    for line in respelled.splitlines() if ":" not in line
                )
                assert _run(respelled, fmt, monkeypatch, capsys) == expected, respelled
    assert mixed >= 50, mixed


# ------------------------------------------------------ no Fraction built


def test_integer_instances_parse_without_building_a_fraction(fraction_builds):
    texts = _instances()
    assert {cli.parse_instance(t).problem for t in texts} == set(cli.PROBLEMS)
    assert fraction_builds == []
    assert all(type(v) is int or v is NEG_INF
               for t in texts for vec in cli.parse_instance(t).vectors.values() for v in vec)


def test_grid_spec_of_builds_one_fraction_per_distinct_value(fraction_builds):
    """An integral value builds none: only a non-integer token builds its one Fraction."""
    grid = GridSpec.of(["-3", "-1", "0", "1", "3"])
    assert fraction_builds == []
    assert typed(grid.values) == typed((-3, -1, 0, 1, 3))
    GridSpec.of(["3", "+3", "03", "-1", "-01"])
    assert fraction_builds == []
    grid = GridSpec.of(["1/2", "3", "1.5", "+3"])
    assert len(fraction_builds) == 2
    assert typed(grid.values) == typed((Fraction(1, 2), Fraction(3, 2), 3))
