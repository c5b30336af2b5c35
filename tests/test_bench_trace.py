"""The benchmark's traced run still finds every layer it wraps.

bench/layers.py wraps names that tropsolve's modules look up at call time.
It is executed here from its source (no bytecode is written next to it), its
Tracer is installed against the package and a few small instances of every
mode go through the CLI, so a renamed or dropped name, or a layer the CLI no
longer reaches, fails here and not only in the traced benchmark run.
"""

from __future__ import annotations

import contextlib
import io
import sys
import types
from pathlib import Path

import tropsolve.cli as cli_mod

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

INSTANCES = (
    "problem: eq\nm: 2\nn: 2\nA:\n0 -inf\n1 2\nB:\n-inf 0\n1 2\n",
    # three silencing scenarios
    "problem: eq\nm: 3\nn: 3\nA:\n0 1 1\n2 -inf 0\n-inf 0 0\nB:\n2 -inf -inf\n2 -inf -2\n-inf 1 0\n",
    "problem: leq\nm: 1\nn: 2\nA:\n0 1\nB:\n1 0\n",
    "problem: eqb\nm: 1\nn: 2\nA:\n1 2\nb:\n3\n",
    "problem: hetero\nm: 1\nn: 1\ns: 1\nC:\n0\nD:\n0\n",
    "problem: affine\nm: 1\nn: 1\nA:\n0\nB:\n0\na:\n0\nb:\n1\n",
)


def _load_layers():
    module = types.ModuleType("bench_layers")
    module.__file__ = str(LAYERS)
    source = LAYERS.read_text(encoding="utf-8")
    exec(compile(source, str(LAYERS), "exec"), module.__dict__)
    return module


def _run_cli(text):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli_mod.run(["-", "--format", "json", "--check", "grid=-1,0,1"])
    finally:
        sys.stdin = saved


def test_tracer_wraps_and_reaches_every_layer():
    layers = _load_layers()
    originals = {(module, attr): getattr(sys.modules[module], attr, None)
                 for _, module, attr in layers.TARGETS if "." not in attr}
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(getattr(sys.modules[module], attr) is not fn
                   for (module, attr), fn in originals.items())
        codes = [_run_cli(text) for text in INSTANCES]
    finally:
        tracer.uninstall()
    assert all(getattr(sys.modules[module], attr) is fn
               for (module, attr), fn in originals.items())
    assert codes == [0] * len(INSTANCES)
    # cells.built counts constructions through the module name SolutionCell:
    # a construction that bypasses it would read 0 here
    built = sum(1 for result in tracer.solve_results for cell in result.cells if cell.win_sequence)
    assert tracer.counts["cells.built"] == built > 0
    _, _, calls = tracer.layer_times()
    missing = set(layers.expected_spans("cli")) - set(calls)
    assert not missing, f"layers never reached: {sorted(missing)}"
    # solve reduces once per silencing scenario through cells.reduce_instance,
    # so the preprocess span counts scenarios, not per-solve set-up
    scenarios = sum(result.stats.scenarios for result in tracer.solve_results)
    assert calls["preprocess.reduce"] == scenarios > len(tracer.solve_results)
