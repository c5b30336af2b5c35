"""cli.run called again and again in one process.

The argument parser is built once per process, so a run must construct
none, leave no cyclic garbage for the collector, carry no option over into
the next run and print the same --help as a freshly built parser.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io

import pytest

from tropsolve import Matrix, cli
from tropsolve.cli import InstanceFile, format_instance, run

NI = "-inf"

# The four worked examples of the README as eq instances, plus one small
# instance of each other mode.
README_FIXTURES = {
    "running": ([[3, 7, -1, NI], [6, 7, NI, NI], [1, 0, 1, NI]],
                [[NI, NI, NI, 8], [NI, NI, 5, 1], [1, 0, 1, 2]]),
    "empty": ([[3, 7, -1, NI], [6, 7, NI, NI], [-9, 0, 0, NI]],
              [[NI, NI, NI, 8], [NI, NI, 5, 1], [-9, 0, NI, -4]]),
    "three_by_three": ([[1, 3, NI], [5, 0, NI], [NI, 3, NI]],
                       [[NI, NI, 3], [5, 0, 2], [3, NI, 2]]),
    "two_by_seven": ([[NI, NI, NI, 0, 4, 2, 6], [NI, 5, 6, NI, NI, NI, 2]],
                     [[0, 1, 5, NI, NI, NI, NI], [3, NI, NI, 0, 2, 4, NI]]),
}
OTHER_MODES = {
    "leq": "problem: leq\nm: 2\nn: 2\nA:\n0 1\n-inf 2\nB:\n1 0\n2 -inf\n",
    "eqb": "problem: eqb\nm: 1\nn: 2\nA:\n1 2\nb:\n3\n",
    "hetero": "problem: hetero\nm: 1\nn: 2\ns: 2\nC:\n0 1\n2 -inf\nD:\n1\n0\n",
    "affine": "problem: affine\nm: 1\nn: 2\nA:\n0 1\nB:\n1 0\na:\n0\nb:\n1/2\n",
}


def _text(a, b):
    matrices = {"A": Matrix(a), "B": Matrix(b)}
    return format_instance(InstanceFile("eq", len(a), len(a[0]), None, matrices, {}))


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("instances")
    texts = {name: _text(*pair) for name, pair in README_FIXTURES.items()}
    texts.update(OTHER_MODES)
    paths = []
    for name, text in texts.items():
        path = folder / f"{name}.txt"
        path.write_text(text)
        paths.append(str(path))
    return paths


def _run(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_repeated_runs_leave_no_cyclic_garbage(instance_files):
    argvs = [[p, "--format", "json", "--check", "grid=-1,0,1"] for p in instance_files]
    for argv in argvs:  # warm up: imports and first-use caches
        assert _run(argv)[0] == 0, argv
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            for argv in argvs:
                assert _run(argv)[0] == 0
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert unreachable == 0


def test_run_builds_no_argument_parser(instance_files, monkeypatch):
    def no_parser(*args, **kwargs):
        raise AssertionError("run built an argument parser")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    for path in instance_files:
        assert _run([path, "--check", "grid=0,1"])[0] == 0


def test_options_do_not_carry_over_between_runs(instance_files):
    path = instance_files[0]
    plain = _run([path])
    flagged = _run([path, "--dedupe", "--stats", "--seed", "3", "--format", "json"])
    assert flagged[0] == 0 and flagged[1] != plain[1] and flagged[2]
    assert _run([path]) == plain
    assert plain[2] == ""  # no --stats line, no check report


def test_help_is_the_fresh_parsers_help():
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as stop:
            run(["--help"])
        assert stop.value.code == 0
        assert out.getvalue() == cli._argument_parser().format_help()
