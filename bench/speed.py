"""Machine-speed sampling for the end-to-end timings.

On a shared machine the CPU speed one process gets drifts by 10-40%
within a second and between runs, in wall and CPU time alike, because
other tenants contend for the same cores and caches. Timing the same op
twice can then differ by more than any optimisation worth measuring.

`SpeedSampler` runs a fixed pure-Python probe kernel from a SIGALRM
handler every PERIOD_S seconds while it is active, so the probe runs in
between mfkit's own bytecodes, in the same thread. `nominal(t0, t1)`
takes an interval, removes the probe time spent inside it, and scales
the rest by how fast the probe ran around it:

    nominal = (t1 - t0 - probe time inside) * NOMINAL_PROBE_S / mean probe

so every reported time is what the interval would have taken on a
machine where the probe takes NOMINAL_PROBE_S. The kernel does what
mfkit's inner loops do: Fraction arithmetic, tuple keys, dict updates.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
PROBE_ITERATIONS = 200
# The probe's median duration on the 2-CPU sandbox the bounds were sized
# on; it only fixes the unit, comparisons do not depend on it.
NOMINAL_PROBE_S = 0.0014
# Probes within this distance of an interval set its speed.
HALF_WIDTH_S = 2 * PERIOD_S


def probe() -> float:
    """Duration of one run of the fixed kernel."""
    start = time.perf_counter()
    table, acc = {}, Fraction(0)
    for i in range(PROBE_ITERATIONS):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 5 + 1, i % 3 + 1) * Fraction(i % 7 + 1, 2)
    return time.perf_counter() - start


class SpeedSampler:
    """Probe start times and durations, sampled while the block runs."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        self.at.append(time.perf_counter())
        self.took.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def nominal(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] takes at nominal speed."""
        inside = sum(self.took[bisect.bisect_left(self.at, t0):bisect.bisect_left(self.at, t1)])
        lo = bisect.bisect_left(self.at, t0 - HALF_WIDTH_S)
        hi = bisect.bisect_right(self.at, t1 + HALF_WIDTH_S)
        if lo == hi:  # only when the sampler was not running around [t0, t1]
            lo, hi = max(0, lo - 1), min(len(self.took), hi + 1)
        return (t1 - t0 - inside) * NOMINAL_PROBE_S / statistics.fmean(self.took[lo:hi])


def scaled_probe_edges(measure) -> float:
    """measure() timed between two probes, at nominal speed. For work the
    sampler cannot run inside, such as waiting on a child process."""
    before = probe()
    value = measure()
    return value * 2 * NOMINAL_PROBE_S / (before + probe())
