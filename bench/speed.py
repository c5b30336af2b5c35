"""Machine-speed reference, so that times from a shared host can be compared.

On a host shared with other jobs, the same pure-Python work takes 20-35%
more or less wall time from one minute to the next, and process CPU time
moves with it (the other jobs share the cores and caches, they do not just
take turns).  A run therefore times, between its operations, a fixed kernel
that belongs to the benchmark, not to the program: ``Fraction`` arithmetic,
dict stores and a sort, the same kind of interpreter work the solver does.
Each operation's wall time is divided by the kernel time measured around it
and multiplied by ``REF_S``.  The result is the operation's time in seconds
of a host on which one kernel call takes ``REF_S``: a change to the program
moves it, a change in the load of the host mostly does not.

The kernel is pure standard library, so no change to the program changes
its time.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Nominal time of one kernel call: its best time on an idle core of the
# 2-core Intel Xeon container the benchmark was written on (Python 3.11.7).
REF_S = 0.00035
PROBE_CALLS = 3  # kernel calls per probe; the probe reports their median
# Operation time between two probes.  Operations between probes k-1 and k
# are scaled by the median of probes k-1-WINDOW .. k+WINDOW.
PROBE_EVERY_S = 0.05
WINDOW = 2


def kernel():
    total = Fraction(0)
    seen = {}
    for k in range(1, 120):
        total += Fraction(k % 7 - 3, k)
        seen[(k, k % 5)] = total.numerator % 97
    sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
    return total


def probe() -> float:
    """Median wall time of a few kernel calls, in seconds."""
    times = []
    for _ in range(PROBE_CALLS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedLog:
    """Probes taken between operations, and the scale they give each operation.

    ``slot()`` is the number of probes taken so far: an operation run with
    slot k lies between probes k-1 and k.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._since = 0.0

    def slot(self) -> int:
        return len(self.probes)

    def take(self):
        self.probes.append(probe())
        self._since = 0.0

    def after_op(self, seconds: float):
        """Count an operation's time; probe once enough has passed."""
        self._since += seconds
        if self._since >= PROBE_EVERY_S:
            self.take()

    def scale(self, slot: int) -> float:
        """Factor that turns wall seconds of an operation in ``slot`` into reference seconds."""
        lo = max(0, slot - 1 - WINDOW)
        hi = min(len(self.probes), slot + WINDOW + 1)
        return REF_S / statistics.median(self.probes[lo:hi])
