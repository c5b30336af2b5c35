"""Per-layer tracing from outside the program.

The traced run replaces the public names that ``tropsolve.cells``,
``tropsolve.reductions``, ``tropsolve.oracle`` and ``tropsolve.cli`` look up
at call time with wrappers that record one span per call: layer, start, end,
parent span and the operation it belongs to.  Spans stay in memory while the
run lasts and are written out at the end.  ``core`` has no call boundary of
its own: its Fraction and -inf arithmetic is self time of its callers.

A wrapped name that no longer exists, or that a workload should reach but
never calls, is reported as a missing layer; the traced run then fails
instead of printing zeros.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute looked up at call time)
TARGETS = (
    ("cells.solve", "tropsolve.cells", "solve"),
    ("cells.solve", "tropsolve.cli", "solve"),
    ("cells.solve", "tropsolve.reductions", "solve"),
    ("preprocess.reduce", "tropsolve.cells", "reduce_instance"),
    ("winseq.classify", "tropsolve.cells", "classify_row"),
    ("winseq.classify", "tropsolve.cells", "winning_pairs"),
    ("winseq.enumerate", "tropsolve.cells", "enumerate_win_sequences_counted"),
    ("bivariate.build", "tropsolve.cells", "build_systems"),
    ("bivariate.unionfind", "tropsolve.cells", "OffsetUnionFind.add_equation"),
    ("bivariate.unionfind", "tropsolve.cells", "OffsetUnionFind.snapshot"),
    ("bivariate.propagate", "tropsolve.cells", "remove_and_enlarge"),
    ("bivariate.substitute", "tropsolve.cells", "substitute"),
    ("bivariate.subspecialize", "tropsolve.cells", "sub_specialize"),
    ("reductions.solve", "tropsolve.cli", "solve_hetero"),
    ("reductions.solve", "tropsolve.cli", "solve_eq_b"),
    ("reductions.solve", "tropsolve.cli", "solve_affine"),
    ("reductions.solve", "tropsolve.reductions", "solve_affine"),
    ("reductions.bridge", "tropsolve.cli", "leq_to_eq"),
    ("reductions.bridge", "tropsolve.cli", "hetero_to_homo"),
    ("reductions.bridge", "tropsolve.cli", "homogenize_affine"),
    ("reductions.bridge", "tropsolve.reductions", "hetero_to_homo"),
    ("reductions.bridge", "tropsolve.reductions", "homogenize_affine"),
    ("reductions.pin", "tropsolve.reductions", "pin_variable"),
    ("oracle.cross_validate", "tropsolve.cli", "cross_validate"),
    ("oracle.grid", "tropsolve.oracle", "grid_solutions"),
    ("oracle.membership", "tropsolve.oracle", "cell_membership"),
    ("oracle.sample", "tropsolve.oracle", "sample_cell"),
    ("oracle.verify", "tropsolve.oracle", "verify_solution"),
    ("cli.run", "tropsolve.cli", "run"),
    ("cli.parse", "tropsolve.cli", "parse_instance"),
    ("cli.emit", "tropsolve.cli", "emit"),
)

# Constructions of this class are counted (cells.built), not spanned.
CELL_CLASS = ("tropsolve.cells", "SolutionCell")

SOLVER_SPANS = (
    "cells.solve",
    "preprocess.reduce",
    "winseq.classify",
    "winseq.enumerate",
    "bivariate.build",
    "bivariate.unionfind",
    "bivariate.propagate",
    "bivariate.substitute",
    "bivariate.subspecialize",
    "cli.emit",
)
CLI_SPANS = SOLVER_SPANS + (
    "cli.run",
    "cli.parse",
    "reductions.solve",
    "reductions.bridge",
    "reductions.pin",
    "oracle.cross_validate",
    "oracle.grid",
    "oracle.membership",
    "oracle.sample",
    "oracle.verify",
)


class MissingLayer(Exception):
    """A wrapped name is gone, or a layer the workload must reach was never called."""


def geometric_key(cell):
    """Cell identity without its win sequence: -inf set, assignments, constraints."""
    return (
        tuple(sorted(cell.neg_inf)),
        tuple(sorted((v, p, o) for v, (p, o) in cell.assignments.items())),
        tuple((c.plus, c.minus, c.constant) for c in cell.constraints),
    )


class Tracer:
    """Installs the wrappers, records spans and result-derived counts."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [op, name index, start, end, parent index]
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.solve_results: list = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _on_result(self, name, args, result):
        if name == "winseq.enumerate":
            sequences, nodes = result
            self.counts["winseq.sequences"] += len(sequences)
            self.counts["winseq.nodes"] += nodes
        elif name == "cells.solve":
            self.solve_results.append(result)
        elif name == "oracle.grid":
            self.counts["oracle.candidates"] += len(args[2].points()) ** args[0].cols

    def _wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, on_result = self.spans, self.stack, self._on_result

        def traced(*args, **kwargs):
            rec = [self.op, nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            on_result(name, args, result)
            return result

        return traced

    def _count_cells(self, cls):
        counts = self.counts

        def counted(*args, **kwargs):
            cell = cls(*args, **kwargs)
            if cell.win_sequence:
                counts["cells.built"] += 1
            return cell

        return counted

    @staticmethod
    def _resolve(module_name, attr):
        owner = sys.modules.get(module_name)
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, last, None)):
            raise MissingLayer(f"{module_name}.{attr} not found")
        return owner, last

    def install(self):
        """Wrap every target, or raise MissingLayer and wrap none if one is gone."""
        missing = []
        plan = []
        for name, module_name, attr in TARGETS:
            try:
                owner, last = self._resolve(module_name, attr)
            except MissingLayer as exc:
                missing.append(f"layer {name}: {exc}")
                continue
            plan.append((owner, last, self._wrap(name, getattr(owner, last))))
        try:
            owner, last = self._resolve(*CELL_CLASS)
            plan.append((owner, last, self._count_cells(getattr(owner, last))))
        except MissingLayer as exc:
            missing.append(f"counter cells.built: {exc}")
        if missing:
            raise MissingLayer("; ".join(missing))
        for owner, last, wrapper in plan:
            self._saved.append((owner, last, getattr(owner, last)))
            setattr(owner, last, wrapper)

    def uninstall(self):
        for owner, last, original in reversed(self._saved):
            setattr(owner, last, original)
        self._saved.clear()

    # ------------------------------------------------------------- results

    def layer_times(self):
        """Per span name: (inclusive seconds, self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for op, nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (op, nid, start, end, parent) in enumerate(self.spans):
            name = self.names[nid]
            incl[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return incl, own, calls

    def result_counts(self):
        """Counts read from the solve results: kept cells, distinct cells, scenarios."""
        counts = Counter()
        for result in self.solve_results:
            counts["cells.kept"] += len(result.cells)
            counts["cells.distinct"] += len({geometric_key(c) for c in result.cells})
            if result.stats is not None:
                counts["cells.scenarios"] += result.stats.scenarios
        return counts

    def write(self, path):
        """Write every span (times relative to the first span) as gzipped JSON."""
        origin = self.spans[0][2] if self.spans else 0.0
        doc = {
            "fields": ["op", "layer", "start_s", "end_s", "parent"],
            "layers": self.names,
            "spans": [[op, nid, s - origin, e - origin, p] for op, nid, s, e, p in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def expected_spans(kind):
    return CLI_SPANS if kind == "cli" else SOLVER_SPANS


def per_layer_metrics(tracer: Tracer, counts: Counter):
    """Per-layer metrics, report-only metrics, ratio bases and self time by layer.

    The first dict holds what every workload reaches, plus counts; the
    second holds times of layers only cli-check reaches (reductions, oracle,
    cli parse and run), which are zero by construction elsewhere.
    """
    incl, own, calls = tracer.layer_times()
    seqs = counts["winseq.sequences"]
    nodes = counts["winseq.nodes"]
    built = counts["cells.built"]
    kept = counts["cells.kept"]
    distinct = counts["cells.distinct"]
    rounds = calls["bivariate.subspecialize"]

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = defaultdict(float)
    for name, seconds in own.items():
        layer_self[name.split(".", 1)[0]] += seconds

    m = {
        "preprocess.reduce_s": (incl["preprocess.reduce"], "s"),
        "preprocess.calls": (calls["preprocess.reduce"], "count"),
        "winseq.classify_s": (incl["winseq.classify"], "s"),
        "winseq.enumerate_s": (incl["winseq.enumerate"], "s"),
        "winseq.nodes": (nodes, "count"),
        "winseq.sequences": (seqs, "count"),
        "winseq.seq_per_node": (ratio(seqs, nodes), "ratio"),
        "bivariate.build_s": (incl["bivariate.build"], "s"),
        "bivariate.unionfind_s": (incl["bivariate.unionfind"], "s"),
        "bivariate.propagate_s": (incl["bivariate.propagate"], "s"),
        "bivariate.substitute_s": (incl["bivariate.substitute"], "s"),
        "bivariate.subspecialize_s": (incl["bivariate.subspecialize"], "s"),
        "bivariate.subspecialize_calls": (rounds, "count"),
        "bivariate.rounds_per_seq": (ratio(rounds, seqs), "ratio"),
        "cells.solve_s": (incl["cells.solve"], "s"),
        "cells.self_s": (own["cells.solve"], "s"),
        "cells.solve_calls": (calls["cells.solve"], "count"),
        "cells.scenarios": (counts["cells.scenarios"], "count"),
        "cells.built": (built, "count"),
        "cells.kept": (kept, "count"),
        "cells.distinct": (distinct, "count"),
        "cells.trivial_share": (ratio(seqs - built, seqs), "ratio"),
        "cells.distinct_share": (ratio(distinct, kept), "ratio"),
        "reductions.bridge_calls": (calls["reductions.bridge"], "count"),
        "reductions.pin_calls": (calls["reductions.pin"], "count"),
        "oracle.grid_calls": (calls["oracle.grid"], "count"),
        "oracle.candidates": (counts["oracle.candidates"], "count"),
        "oracle.membership_calls": (calls["oracle.membership"], "count"),
        "oracle.sample_calls": (calls["oracle.sample"], "count"),
        "oracle.verify_calls": (calls["oracle.verify"], "count"),
        "cli.parse_calls": (calls["cli.parse"], "count"),
        "cli.emit_s": (incl["cli.emit"], "s"),
    }
    for layer in ("preprocess", "winseq", "bivariate", "cells", "cli"):
        m[f"self_s.{layer}"] = (layer_self[layer], "s")
    report_only = {
        "reductions.bridge_s": (incl["reductions.bridge"], "s"),
        "reductions.pin_s": (incl["reductions.pin"], "s"),
        "oracle.grid_s": (incl["oracle.grid"], "s"),
        "oracle.membership_s": (incl["oracle.membership"], "s"),
        "oracle.sample_s": (incl["oracle.sample"], "s"),
        "oracle.verify_s": (incl["oracle.verify"], "s"),
        "cli.run_s": (incl["cli.run"], "s"),
        "cli.parse_s": (incl["cli.parse"], "s"),
        "cli.self_s": (own["cli.run"], "s"),
        "self_s.reductions": (layer_self["reductions"], "s"),
        "self_s.oracle": (layer_self["oracle"], "s"),
    }
    bases = [
        f"winseq.seq_per_node = {seqs} sequences / {nodes} nodes",
        f"bivariate.rounds_per_seq = {rounds} sub_specialize calls / {seqs} sequences",
        f"cells.trivial_share = ({seqs} sequences - {built} built) / {seqs} sequences",
        f"cells.distinct_share = {distinct} distinct / {kept} kept",
    ]
    return m, report_only, bases, dict(layer_self)
