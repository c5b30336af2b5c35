"""tropsolve benchmark: seeded workloads in a closed loop, checked outputs.

    python3 bench/run.py --workload search --seed 1 --seconds 25 --trace 0

Runs from the repository root or anywhere else; it imports the package from
``src/`` next to this directory.  One process, one thread.  Each workload is
a pool of instances generated from ``--seed``; the loop solves them one
after another (closed loop: the next starts when the previous returns) until
``--seconds`` of operation time have been measured, repeating the pool if
time is left.  Every instance of the pool is solved and checked at least
once.  Times are scaled to a reference host speed measured between the
operations (see speed.py), so that the load of a shared host does not show
in them.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` replays a
fixed prefix of the pool with the layer wrappers of ``layers.py`` and prints
the per-layer metrics.  ``--workload all`` runs every workload, each in its
own process.  The last line of standard output is one JSON object.

See NOTES.md for the metric definitions and known defects.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
WARMUP = 3  # instances solved in each set-up
TAIL_LADDER = (50, 75, 90, 99, 99.9)
TAIL_MIN_BEYOND = 10
# The operations call into these; the traced run finds the other modules
# it wraps among those they import.
MODULES = ("tropsolve", "tropsolve.cells", "tropsolve.cli")
# Stop starting operations after this long, so a run always exits within 180 s.
WALL_LIMIT_S = 165.0


def fresh_import():
    """Import the package from src/ as a new process would."""
    for name in [n for n in sys.modules if n == "tropsolve" or n.startswith("tropsolve.")]:
        del sys.modules[name]
    for name in MODULES:
        importlib.import_module(name)
    return sys.modules["tropsolve"]


def op_for(workload):
    return workloads.cli_op if workload.kind == "cli" else workloads.solver_op


def setup(workload, seed, reps):
    """Import, generate the pool and warm up; repeated and timed.

    Returns the package, the pool and each set-up's time in reference
    seconds (see speed.py), with a speed probe before and after each.
    """
    log = speed.SpeedLog()
    log.take()
    timed = []
    for _ in range(reps):
        t0 = perf_counter()
        ts = fresh_import()
        pool = workloads.make_pool(workload, seed, ts)
        # warm up on instances that are the same for every seed, so that
        # set-up time depends on the program and not on the seed
        for inst in workloads.make_pool(workload, "warm-up", ts, WARMUP):
            op_for(workload)(ts, inst)
        timed.append((perf_counter() - t0, log.slot()))
        log.take()
    return ts, pool, [dt * log.scale(slot) for dt, slot in timed]


def tail_percentile(sorted_values):
    """Highest ladder percentile with at least ten samples beyond it (nearest rank)."""
    n = len(sorted_values)
    best = None
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            best = (q, sorted_values[rank - 1], n - rank)
    if best is None:  # too few samples for any tail: report the maximum
        best = (100, sorted_values[-1], 0)
    return best


def digest(hexes):
    return hashlib.sha256("\n".join(hexes).encode()).hexdigest()


def run_one(ts, workload, inst, problems, label):
    """One operation; returns (output or None, seconds).  Exceptions are failures."""
    op = op_for(workload)
    t0 = perf_counter()
    try:
        out = op(ts, inst)
    except Exception:  # the program failed this operation; record and go on
        dt = perf_counter() - t0
        problems.append(f"{label}: raised\n{traceback.format_exc(limit=3)}")
        return None, dt
    return out, perf_counter() - t0


def checked(ts, workload, inst, out, problems, label):
    """Run the correctness gate; returns the sha256 of the canonical output."""
    found = workloads.check(ts, workload, inst, out)
    problems.extend(f"{label}: {p}" for p in found)
    text = workloads.canonical(ts, workload, out)
    return hashlib.sha256(text.encode()).hexdigest(), bool(found)


def timed_run(workload, seed, seconds):
    start = perf_counter()
    ts, pool, setup_times = setup(workload, seed, SETUP_REPS)
    n = len(pool)
    samples = [[] for _ in range(n)]
    hexes = [None] * n
    problems: list[str] = []
    attempted = failed = timed_ops = 0
    busy = 0.0  # wall seconds of timed operations
    timed_ops_log = []  # (instance, wall seconds, speed slot)
    log = speed.SpeedLog()
    log.take()
    i = 0
    while (i < n or busy < seconds) and perf_counter() - start < WALL_LIMIT_S:
        idx = i % n
        i += 1
        label = f"instance {idx}"
        timed = busy < seconds
        out, dt = run_one(ts, workload, pool[idx], problems, label)
        attempted += 1
        if timed:
            busy += dt
            timed_ops += 1
            timed_ops_log.append((idx, dt, log.slot()))
            log.after_op(dt)
        if out is None:
            failed += 1
            hexes[idx] = hexes[idx] or "raised"
            continue
        if hexes[idx] is None:
            hexes[idx], bad = checked(ts, workload, pool[idx], out, problems, label)
        else:
            bad = hashlib.sha256(workloads.canonical(ts, workload, out).encode()).hexdigest() != hexes[idx]
            if bad:
                problems.append(f"{label}: output differs from its first solve")
        failed += bad

    log.take()
    for idx, dt, slot in timed_ops_log:
        samples[idx].append(dt * log.scale(slot))
    unrun = sum(h is None for h in hexes)
    per_instance = sorted(statistics.median(s) for s in samples if s)
    q, tail, beyond = tail_percentile(per_instance)
    metrics = {
        "latency_s.p50": (statistics.median(per_instance), "s"),
        "latency_s.tail": (tail, "s"),
        # one pass over the timed instances, each at its median time: the
        # instances that a partial last pass repeats do not weigh more
        "instances_per_s": (len(per_instance) / sum(per_instance), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    lines = [
        f"workload {workload.name} seed {seed}: {attempted} operations on {n} instances, "
        f"{timed_ops} timed over {busy:.3f} s, closed loop, 1 client",
        f"  host speed        {statistics.median(log.probes) * 1e3:.4f} ms per kernel call "
        f"(median of {len(log.probes)} probes; reference {speed.REF_S * 1e3:.4f} ms); "
        f"times below are in reference seconds",
        f"  wall time         {busy / timed_ops:.6f} s per operation, {timed_ops / busy:.4f} 1/s (not scaled)",
        f"  latency_s.p50     {metrics['latency_s.p50'][0]:.6f} s  (median over {len(per_instance)} instances)",
        f"  latency_s.tail    {tail:.6f} s  (p{q}: {beyond} of {len(per_instance)} instances beyond)",
        f"  instances_per_s   {metrics['instances_per_s'][0]:.4f} 1/s  "
        f"({len(per_instance)} instances / sum of their median latencies)",
        f"  fail_frac         {failed / attempted:.6f}  ({failed} failed / {attempted} attempted)",
        f"  setup_s           {metrics['setup_s'][0]:.6f} s  (median of {len(setup_times)})",
        f"  peak_rss_mib      {metrics['peak_rss_mib'][0]:.3f} MiB",
        f"  output digest     {digest([h or 'not run' for h in hexes])}  ({n - unrun} canonical JSON outputs)",
    ]
    if unrun:
        lines.append(f"  warning: {unrun} instances not run within {WALL_LIMIT_S:.0f} s")
    return lines, problems, attempted, failed, metrics


def trace_run(workload, seed):
    """Replay a pool prefix: each instance untraced and under two tracers.

    The three solves of one instance run back to back, in rotating order,
    so drift in machine speed and cache warmth cancel out of the tracing
    overhead.  The two traced solves must give the same counts; all three
    must give the same output.
    """
    ts, pool, _ = setup(workload, seed, 1)
    pool = pool[: workload.trace_instances]
    problems: list[str] = []
    attempted = failed = 0
    tracers = (layers.Tracer(), layers.Tracer())
    busy = [0.0, 0.0, 0.0]  # untraced, first tracer, second tracer
    base_hexes = []

    slots = list(enumerate((None, *tracers)))
    for idx, inst in enumerate(pool):
        hexes = []
        # rotate which solve comes first: a first solve runs on colder caches
        for slot, tracer in slots[idx % 3:] + slots[: idx % 3]:
            if tracer is not None:
                tracer.op = idx
                tracer.install()
            try:
                t0 = perf_counter()
                out, _ = run_one(ts, workload, inst, problems, f"instance {idx}")
                text = None if out is None else workloads.canonical(ts, workload, out)
                busy[slot] += perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.uninstall()
            attempted += 1
            if out is None:
                failed += 1
                hexes.append("-")
                continue
            hexes.append(hashlib.sha256(text.encode()).hexdigest())
            found = workloads.check(ts, workload, inst, out) if slot == 1 else []
            problems.extend(f"instance {idx}: {p}" for p in found)
            failed += bool(found)
        if len(set(hexes)) != 1:
            problems.append(f"instance {idx}: traced and untraced outputs differ")
        base_hexes.append(hexes[0])

    tracer = tracers[0]
    counts, counts2 = (t.counts + t.result_counts() for t in tracers)
    if counts != counts2:
        problems.append(f"counts differ between two traced solves: {counts} vs {counts2}")
    _, _, calls = tracer.layer_times()
    absent = [name for name in layers.expected_spans(workload.kind) if not calls[name]]
    if not counts["cells.built"]:
        absent.append("cells.built (no SolutionCell constructed)")
    if absent:
        raise layers.MissingLayer("never called on this workload: " + ", ".join(absent))

    metrics, report_only, bases, layer_self = layers.per_layer_metrics(tracer, counts)
    base_s, traced_s = busy[0], busy[1]
    traced_mean = (busy[1] + busy[2]) / 2
    metrics["trace.untraced_s"] = (base_s, "s")
    metrics["trace.traced_s"] = (traced_mean, "s")
    metrics["trace.overhead"] = (traced_mean / base_s - 1, "ratio")
    out_path = HERE / "out" / f"spans-{workload.name}-seed{seed}.json.gz"
    tracer.write(out_path)

    ranking = sorted(layer_self.items(), key=lambda kv: -kv[1])
    lines = [
        f"traced workload {workload.name} seed {seed}: {len(pool)} instances, "
        f"{len(tracer.spans)} spans per pass, written to {out_path.relative_to(HERE.parent)}",
        f"  tracing overhead  {metrics['trace.overhead'][0]:.4f}  "
        f"(traced {traced_mean:.4f} s / untraced {base_s:.4f} s - 1)",
        "  self time by layer: "
        + ", ".join(f"{layer} {sec:.4f} s ({sec / traced_s:.1%})" for layer, sec in ranking),
        f"  largest self-time layer: {ranking[0][0]}",
        f"  output digest     {digest(base_hexes)}  ({len(pool)} canonical JSON outputs)",
    ]
    lines += [f"  {name:30s} {value:.6f} {unit}" if unit != "count" else f"  {name:30s} {value} {unit}"
              for name, (value, unit) in metrics.items()]
    lines += [f"  {name:30s} {value:.6f} {unit}  (report only)" for name, (value, unit) in report_only.items()]
    lines += [f"  {b}" for b in bases]
    return lines, problems, attempted, failed, metrics


def run_workload(name, seed, seconds, trace):
    workload = workloads.WORKLOADS[name]
    if trace:
        lines, problems, attempted, failed, metrics = trace_run(workload, seed)
    else:
        lines, problems, attempted, failed, metrics = timed_run(workload, seed, seconds)
    for p in problems[:20]:
        print(f"FAIL {name}: {p}", file=sys.stderr)
    print("\n".join(lines))
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, one after another; results combined."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            sys.exit(proc.returncode or 1)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "tropsolve" / "__init__.py").is_file():
        print(f"error: no tropsolve sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        result = run_all(args)
    else:
        try:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        except layers.MissingLayer as exc:
            print(f"error: missing layer: {exc}", file=sys.stderr)
            sys.exit(3)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
