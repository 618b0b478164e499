"""Host-speed probe: turns wall-clock intervals into reference-speed seconds.

On a shared host the CPU this process gets runs at a speed that swings by up
to 2x for seconds at a time, so raw wall times of one piece of work differ
by 15-30 % from run to run.  While a probe is active, a ``SIGALRM`` every
`INTERVAL_S` runs a fixed exact computation in the program's style (rational
Gaussian elimination of a 4x4 integer matrix, about 0.13 ms) on the same
thread and records how long it took.  An interval of wall time, less the
probe's own time in it, is rescaled by ``NOMINAL_S / (median probe time
within WINDOW_S of it)``, in pieces of `CHUNK_S` for long intervals, so a
slow phase of the host stretches the probe as much as the work and cancels
out.  The median ignores probes that the host preempted: a few milliseconds
lost inside one probe would otherwise rescale the whole piece.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

from workloads import exact_rank

INTERVAL_S = 0.02
WINDOW_S = 0.5
CHUNK_S = 0.1
# The probe's duration at full speed on the host the baseline in README.md
# was measured on (2-core x86 VM at 2.1 GHz, Python 3.11); it sets the scale
# so that reference-speed seconds read about like wall seconds there.
NOMINAL_S = 1.35e-4
_MATRIX = ((3, -1, 4, 1), (-5, 9, 2, -6), (5, 3, -5, 8), (9, -7, 9, 3))


class SpeedProbe:
    """Context manager; `adjusted` is usable after it exits."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, signum, frame) -> None:
        a = time.perf_counter()
        exact_rank(_MATRIX)
        self.starts.append(a)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def adjusted(self, a: float, b: float) -> float:
        """Seconds the wall interval ``[a, b]`` would have taken at the
        nominal probe speed, without the probe's own time inside it."""
        total = 0.0
        while b - a > CHUNK_S:
            total += self._adjusted(a, a + CHUNK_S)
            a += CHUNK_S
        return total + self._adjusted(a, b)

    def _adjusted(self, a: float, b: float) -> float:
        starts, ends = self.starts, self.ends
        if not starts:
            return b - a
        first, last = bisect.bisect_left(starts, a), bisect.bisect_right(starts, b)
        probe_time = sum(
            max(0.0, min(b, ends[i]) - max(a, starts[i])) for i in range(max(first - 1, 0), last)
        )
        lo = bisect.bisect_left(starts, a - WINDOW_S)
        hi = bisect.bisect_right(starts, b + WINDOW_S)
        if lo == hi:  # no sample near: take the closest one
            lo = min(lo, len(starts) - 1)
            if lo > 0 and a - ends[lo - 1] < starts[lo] - b:
                lo -= 1
            hi = lo + 1
        typical = statistics.median(ends[i] - starts[i] for i in range(lo, hi))
        return (b - a - probe_time) * NOMINAL_S / typical
