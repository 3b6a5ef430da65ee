"""Wall time converted to seconds at a fixed reference CPU speed.

On a shared host a vCPU can run 1.3 to 2.5 times slower, for 1 to 40
seconds at a time, while a co-tenant uses its core. The slow phases of the
two vCPUs are independent of each other. CPU time shows the same slowdown
and no performance counters are exposed, so neither removes it. Instead, a
fixed piece of pure-Python work (the probe) is timed every 50 ms from a
SIGALRM handler, in the thread that runs the work. Each stretch of wall time
is scaled by ``REF_S`` over the duration of the probe that ends it, and the
probes' own time is left out.

The probe does what the program's hot paths do most: small function calls
that AND and popcount 128-bit bitset rows, and dict lookups.  On repeated
campaigns under slowdowns of 1.3 to 2.5, the time it leaves behind grew as
the probe's slowdown to the power 0.01 (fact1-dense), 0.07 (gap-spex) and
0.19 (biclique-search); without the function calls those powers were 0.10,
0.15 and 0.33, and a bare integer loop under-corrected more still.
"""

from __future__ import annotations

import bisect
import random
import signal
import time

REF_S = 0.0004  # probe() on an idle core of a 2-vCPU Xeon VM, CPython 3.11
INTERVAL_S = 0.05

_rng = random.Random(0)
_ROWS = [_rng.getrandbits(128) for _ in range(128)]
_TABLE = {f"k{i}": i for i in range(4000)}


def _and_count(a: int, b: int) -> int:
    return (a & b).bit_count()


def probe() -> float:
    """Seconds for a fixed piece of bitset and dict work."""
    start = time.perf_counter()
    acc = 0
    for a in _ROWS:
        for b in _ROWS[:24]:
            acc += _and_count(a, b)
    for key in _TABLE:
        acc += _TABLE[key]
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager that samples the CPU speed every INTERVAL_S.

    It must be entered in the main thread, which runs signal handlers.
    """

    def __init__(self):
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        self._starts.append(time.perf_counter())
        self._durations.append(probe())

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def nominal(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the work done between perf_counter
        readings t0 and t1, excluding probe time."""
        total = 0.0
        cursor = t0
        i = bisect.bisect_left(self._starts, t0)
        while i < len(self._starts) and self._starts[i] < t1:
            total += (self._starts[i] - cursor) * REF_S / self._durations[i]
            cursor = self._starts[i] + self._durations[i]
            i += 1
        # the tail is scaled by the next probe, or by the last one if none followed
        after = self._durations[min(i, len(self._durations) - 1)] if self._durations else REF_S
        return total + max(0.0, t1 - cursor) * REF_S / after
