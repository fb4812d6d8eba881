"""A speed gauge for a shared host, sampled while the engine runs.

Other tenants of a shared host slow every process on it, by up to a half
and in phases from a fraction of a second to minutes.  No statistic over
one run can remove a phase longer than the run, so each time the
benchmark reports is corrected by the host's speed at the moment it was
taken.  While a ``Gauge`` is open, a profiling timer interrupts the
process every ``PERIOD_S`` of its CPU time and runs one slice of a fixed
pure-Python reference loop (``reference``), which is timed.  An
operation's own time is its wall time minus the slices that interrupted
it; ``Gauge.corrected`` scales it by ``NOMINAL_S`` over the mean slice
near it in time.  So a corrected time reads as the operation's time on a
host that runs a slice in ``NOMINAL_S``; engine code makes the ratio
move, the host's load mostly does not.

The reference loop lives here, outside the engine, so no change to the
engine can change it.
"""

from __future__ import annotations

import gc
import signal
import time
from array import array
from bisect import bisect_left, bisect_right

PERIOD_S = 0.04  # process CPU time between two slices
SLICE_LOOPS = 4000  # iterations of the reference loop in one slice
NOMINAL_S = 0.0016  # one slice on an unloaded 2-vCPU host; scale of corrected times
WINDOW_S = 0.15  # slices this near an operation set its speed
MIN_SLICES = 6  # at least this many slices set an operation's speed


def reference(n: int) -> int:
    """Fixed interpreter work like the engine's: small-int bit operations,
    tuples, dict and set updates and calls."""
    counts, seen, acc = {}, set(), 0

    def sym_diff(a, b):
        return (a | b) & ~(a & b)

    for i in range(n):
        m = sym_diff(i, i >> 3)
        key = (m, i & 7, m ^ i)
        counts[key] = counts.get(key, 0) + 1
        if m & 4:
            seen.add(m & 1023)
        acc += len(key)
    return acc + len(counts) + len(seen)


class Gauge:
    """Open it with ``with``; call ``corrected`` after it is closed.  A
    gauge made with ``enabled=False`` takes no slices and corrects nothing,
    for traced jobs, whose spans must time the engine alone."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.starts = array("d")
        self.lengths = array("d")
        self._busy = False
        self._prefix: list[float] = []

    def _slice(self) -> None:
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # the engine's heap is not the gauge's to collect
        t0 = time.perf_counter()
        reference(SLICE_LOOPS)
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.lengths.append(t1 - t0)
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            self._slice()

    def __enter__(self) -> Gauge:
        if not self.enabled:
            return self
        for _ in range(MIN_SLICES):
            self._slice()
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self.enabled:
            return
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        for _ in range(MIN_SLICES):
            self._slice()
        total, self._prefix = 0.0, [0.0]
        for d in self.lengths:
            total += d
            self._prefix.append(total)

    def _sum(self, i: int, j: int) -> float:
        return self._prefix[j] - self._prefix[i]

    def corrected(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end``, less the slices inside,
        scaled to the nominal host speed."""
        if not self.enabled:
            return end - start
        s = self.starts
        own = end - start - self._sum(bisect_left(s, start), bisect_right(s, end))
        i, j = bisect_left(s, start - WINDOW_S), bisect_right(s, end + WINDOW_S)
        while j - i < MIN_SLICES:
            i, j = max(i - 1, 0), min(j + 1, len(s))
        return own * NOMINAL_S * (j - i) / self._sum(i, j)

    def mean_slice(self) -> float:
        """The mean slice of this gauge, 0 when it took none."""
        return self._prefix[-1] / len(self.lengths) if self.lengths else 0.0
