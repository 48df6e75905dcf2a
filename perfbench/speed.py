"""Timing that does not move with the speed of the vCPU.

On the 2-vCPU machine this benchmark was built on, the same pure-Python
loop runs anywhere between full speed and about 2.6x slower, in phases
that last from milliseconds to tens of seconds, while CPU time stays
equal to wall time.  Raw times of one operation therefore spread by
12-40 % between repeats, and whole runs differ by up to 30 %.

``SpeedMeter`` samples the speed while the work runs: every
``PERIOD_S`` a timer signal runs a fixed piece of pure-Python work (the
probe) and records how long it took.  An interval is reported as its
wall time minus the probes inside it, scaled by ``PROBE_NS`` over the
mean probe time around it, i.e. in nanoseconds at full speed.

The probe has the program's instruction mix (``Fraction`` arithmetic,
frozensets, dict updates): a pure integer loop slows down less than the
program does and left 10 % between runs.  It runs with the garbage
collector off and frees all it allocates, so it does not move the
program's collections.  No thread is started; the handler runs between
bytecodes of the main thread.
"""

from __future__ import annotations

import collections
import gc
import signal
import time
from fractions import Fraction

clock = time.perf_counter_ns

#: Probe time at full speed on the 2 vCPU Intel Xeon (2.0 GHz) the bounds
#: were set on: the first percentile of 188,065 probes over 20 s.
PROBE_NS = 71_000
PERIOD_S = 0.005
MIN_PROBES = 4  # fewer inside an interval: use the latest ones before it too


def probe() -> int:
    enabled = gc.isenabled()
    gc.disable()
    start = clock()
    total, seen = Fraction(0), {}
    for i in range(1, 25):
        total += Fraction(i % 7 + 1, i)
        key = frozenset(range(i % 11))
        seen[key] = seen.get(key, 0) + len(key)
    spent = clock() - start
    if enabled:
        gc.enable()
    return spent


class SpeedMeter:
    def __init__(self):
        self.count = 0
        self.probe_total = 0
        self.recent = collections.deque(maxlen=MIN_PROBES)
        self.on_tick = None  # called with the interrupted frame (tracing.Sampler)
        self._previous = None

    def _tick(self, signum, frame):
        spent = probe()
        self.count += 1
        self.probe_total += spent
        self.recent.append(spent)
        if self.on_tick is not None:
            self.on_tick(frame)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.recent.append(probe())
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple[int, int, int]:
        return clock(), self.count, self.probe_total

    def since(self, mark) -> tuple[float, int]:
        """Scaled and raw nanoseconds since ``mark``, probes excluded."""
        now = clock()
        start, count, total = mark
        n = self.count - count
        inside = self.probe_total - total
        raw = now - start - inside
        if n >= MIN_PROBES:
            mean = inside / n
        else:
            mean = sum(self.recent) / len(self.recent)
        return raw * PROBE_NS / mean, raw
