"""Time at reference speed, from a reference loop sampled while the work runs.

Other tenants of a shared VM slow this process and the program alike, by
30-60%, in phases from under a second to minutes. A fixed pure-Python loop
timed only before and after an operation misses the phases in between. So
a Sampler interrupts the process every PERIOD_S (SIGALRM from an interval
timer) and times the loop at that moment, on the CPU and in the conditions
the work meets. An operation's time at reference speed is its wall time
less the samples' own time, scaled by NOMINAL_S over the mean sample: it
moves with the program and not with the neighbours. The loop sums a list
of LOOP floats, about 1.3 MB of objects. In 14 runs of the
`concentration` golden whose wall times spread by 0.32 (quartile distance
over median), a loop over that list left a spread of 0.066; a loop over
`range`, which stays in the L1 cache, left 0.098.

A process that does timed work runs its own Sampler: a CLI child from its
first line (see run.py), the benchmark process only around its in-process
operations, never while it waits for a child on the same CPU.
"""
from __future__ import annotations

import signal
import time

LOOP = 40_000
PERIOD_S = 0.03
# one sample's time on a quiet phase of the reference VM
NOMINAL_S = 0.0007
# allocated once, on import, so that the floats lie alike in memory in
# every run and every process
_FLOATS = [float(i) for i in range(LOOP)]


class Sampler:
    def __init__(self):
        self.count, self.total_s = 0, 0.0
        self._previous = None

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        acc = 0.0
        for x in _FLOATS:
            acc += x
        self.count += 1
        self.total_s += time.perf_counter() - t0

    def start(self) -> None:
        self.count, self.total_s = 0, 0.0
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> tuple[int, float]:
        """Stop sampling; one last sample, so that even work shorter than
        PERIOD_S has one. Returns (samples, their summed seconds)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return self.count, self.total_s


def reference_time(wall_s: float, count: int, total_s: float) -> float:
    """Wall time of work that was sampled count times for total_s seconds,
    without the samples, at reference speed."""
    return (wall_s - total_s) * NOMINAL_S * count / total_s
