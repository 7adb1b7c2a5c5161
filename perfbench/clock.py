"""Host time corrected for the machine's momentary speed.

On a shared host the same interpreter work takes up to ~40% longer while
other tenants load the core, and that load shifts within seconds, so
plain wall-clock medians of whole runs differ by more than any useful
regression bound.  :class:`SpeedClock` samples the speed while the
benchmark runs: every ``INTERVAL_S`` an interval timer runs a fixed
pure-Python yardstick in a signal handler and records how long it took.
The handler touches no simulator state, so what is simulated does not
change.

* :meth:`SpeedClock.now` is a work clock: wall time minus the time spent
  in the handler, so the yardstick is not charged to the work.
* :meth:`SpeedClock.scale` turns work time into host seconds at the
  reference speed, the speed at which one yardstick call takes
  ``REF_S`` (an uncontended core of the 2.1 GHz Xeon host the benchmark
  was tuned on).  The simulator slows less than the yardstick when the
  host is loaded: its time stretched by about ``SENSITIVITY`` times the
  yardstick's (log-log slope 0.7-0.9 on Fig. 6 and torus halo runs), so
  the scale is ``(REF_S / mean yardstick time) ** SENSITIVITY``.

The yardstick's 8 MiB walk buffer is resident for the whole run and so
counts toward the process's peak resident memory.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List


#: Bytes of the yardstick's memory walk: beyond the core's private
#: caches, so the walk also feels contention for the shared cache and DRAM.
WALK_BYTES = 8 << 20


def _yardstick(walk: bytearray) -> None:
    """Fixed interpreter work shaped like the simulator's: integer
    arithmetic, a small generator-driven event loop on a heap, and
    scattered reads over ``walk``."""
    s = 0
    for i in range(2000):
        s += i * i % 7

    def proc(k):
        buf = bytearray(64)
        for i in range(8):
            buf[i] = k
            yield (i * 37 + k) % 97 + 1.5

    heap = [(0.0, k, proc(k)) for k in range(32)]
    seq = 32
    while heap:
        t, _, gen = heapq.heappop(heap)
        for dt in gen:
            seq += 1
            heapq.heappush(heap, (t + dt, seq, gen))
            break

    x, mask = 1, len(walk) - 1
    for _ in range(1500):
        x = (x * 1103515245 + 12345) & mask
        s += walk[x]


class WallClock:
    """Plain wall time at scale 1 (the traced pass uses this)."""

    def now(self) -> float:
        return time.perf_counter()

    def mark(self) -> int:
        return 0

    def scale(self, mark: int) -> float:
        return 1.0


class SpeedClock(WallClock):
    #: Yardstick time at the reference speed (seconds per call).
    REF_S = 5.0e-4
    #: Period of the speed samples.
    INTERVAL_S = 0.02
    #: Stretch of simulator time per stretch of yardstick time.
    SENSITIVITY = 0.8

    def __init__(self) -> None:
        self.walk = bytearray(b"\x01") * WALK_BYTES  # resident, not zero pages
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _yardstick(self.walk)
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int) -> float:
        """Work-time scale from the yardstick samples since ``mark`` (one
        sample is taken on the spot if none fell in the interval)."""
        if len(self.samples) <= mark:
            self._tick(None, None)
        speed = self.REF_S / statistics.fmean(self.samples[mark:])
        return speed ** self.SENSITIVITY
