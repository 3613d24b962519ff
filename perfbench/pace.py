"""Host-speed probes, and times adjusted to a reference host speed.

On a shared host the CPU speed a guest gets moves between fast and slow
phases of a few seconds to a minute or more, up to ~1.9x apart, and CPU time
moves with wall time.  A raw time then says more about the phase than about
the program.  So a timed run is paced: a SIGALRM timer interrupts the program
every ``INTERVAL_S`` seconds and the handler runs a fixed probe kernel, in the
same thread on the same CPU.  The probe kernel is the benchmark's own code
(exact rational arithmetic, fraction-free integer elimination, set and dict
work and JSON encoding, as the program does) and calls nothing of the
program's, so a change to the program cannot change it.

Probe time is taken out of every program interval.  The time between two
probes counts at the speed measured around it: it is multiplied by
``REF_PROBE_S`` over the median duration of the ``WINDOW`` probes nearest to
it.  The result reads as seconds on a host whose probe takes ``REF_PROBE_S``,
about the fast phase of the reference host (see README.md, Noise).
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
WINDOW = 8
# median probe duration in a fast phase of the reference host
REF_PROBE_S = 0.002

_MATRIX = tuple(tuple((7 * i + 13 * j) % 11 - 5 for j in range(12)) for i in range(8))


def _now() -> float:
    return time.perf_counter()


def kernel() -> int:
    """A fixed mix of the kinds of work the program does; returns a checksum."""
    acc = Fraction(0)
    for i in range(1, 160):
        acc += Fraction(i % 31 + 1, 3 * i + 1)
    rows = [list(r) for r in _MATRIX]
    for k in range(len(rows)):
        p = rows[k][k] or 1
        for r in range(k + 1, len(rows)):
            q = rows[r][k]
            if q:
                rows[r] = [a * p - b * q for a, b in zip(rows[r], rows[k])]
    seen: dict = {}
    for i in range(220):
        s = frozenset(range(i % 7, i % 7 + 12, i % 3 + 1))
        seen[s] = seen.get(s, 0) + len({a + b for a in s for b in s if a + b < 20})
    text = json.dumps(sorted((sorted(k), v) for k, v in seen.items()))
    return acc.denominator % 1000 + rows[-1][-1] % 1000 + len(text)


def probe() -> tuple[float, float]:
    """Run the kernel once with the garbage collector off; return its start and end.

    With the collector off, a collection of the program's heap never lands
    inside a probe, so a program that keeps more objects alive does not slow
    the probe and thereby make its own time look shorter.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = _now()
        kernel()
        end = _now()
    finally:
        if was_enabled:
            gc.enable()
    return start, end


def speed_factor(samples: int = 5) -> float:
    """REF_PROBE_S over the median of a few probes run now, after one warm-up."""
    probe()
    durations = [end - start for start, end in (probe() for _ in range(samples))]
    return REF_PROBE_S / statistics.median(durations)


class Pacer:
    """Probes the host speed on a timer while the program runs.

    ``start()`` and ``stop()`` bracket the timed region; after ``stop()``,
    ``adjusted(t)`` maps a ``time.perf_counter()`` reading inside the region
    to adjusted seconds since the first probe, so adjusted durations are
    differences of it.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self._previous = None
        self._ends: list[float] = []
        self._base: list[float] = []
        self._rate: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(probe())

    def start(self) -> None:
        probe()  # warm-up, not recorded
        self.probes.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probes.append(probe())
        durations = [end - start for start, end in self.probes]
        half = WINDOW // 2
        base = 0.0
        for j, (start, end) in enumerate(self.probes[:-1]):
            near = durations[max(0, j - half + 1) : j + half + 1]
            rate = REF_PROBE_S / statistics.median(near)
            self._ends.append(end)
            self._base.append(base)
            self._rate.append(rate)
            base += rate * (self.probes[j + 1][0] - end)

    def adjusted(self, t: float) -> float:
        j = bisect.bisect_right(self._ends, t) - 1
        if j < 0:
            raise ValueError("time before the first probe")
        next_start = self.probes[j + 1][0]
        return self._base[j] + self._rate[j] * (min(t, next_start) - self._ends[j])

    def probe_seconds(self) -> float:
        """Raw time spent in the probes between the first and the last."""
        return sum(end - start for start, end in self.probes[1:-1])
