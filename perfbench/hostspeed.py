"""Clocks for the timed units: plain wall time, or wall time rescaled by
the measured speed of the host.

The benchmark host is shared: a fixed loop of Python runs up to twice as
slowly for stretches of a fraction of a second to minutes, as other
tenants come and go.  :class:`HostClock` samples that speed while the
benchmark runs.  An interval timer (``SIGALRM``) fires every
:data:`TICK_PERIOD_S`; each tick runs a fixed reference loop and records
how long it took.  A unit that took ``w`` wall seconds, while the ticks
that fell inside it took ``t`` seconds on average, is reported as
``(w - ticks) * REFERENCE_TICK_S / t`` *reference seconds*: its time on a
host that runs the loop in :data:`REFERENCE_TICK_S`.  The tick time itself
is left out of ``w``.

Both clocks hand out marks (:meth:`mark`) and turn a pair of marks into
seconds (:meth:`seconds`, :meth:`wall`).
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: Seconds between two ticks.
TICK_PERIOD_S = 0.05
#: Iterations of the reference loop; about a millisecond on a quiet core.
REFERENCE_LOOP = 5000
#: Reference-loop time that defines a reference second.
REFERENCE_TICK_S = 1.0e-3

Mark = Tuple[float, int, float]  # (perf_counter, ticks so far, tick seconds so far)


def reference_loop(iterations: int = REFERENCE_LOOP) -> float:
    """Fixed interpreter work: dict updates and float arithmetic."""
    table = {}
    total = 0.0
    for i in range(iterations):
        key = i & 255
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] if key & 1 else -1.0
    return total


class WallClock:
    """Wall seconds, unscaled."""

    def mark(self) -> Mark:
        return (time.perf_counter(), 0, 0.0)

    def wall(self, start: Mark, end: Mark) -> float:
        return end[0] - start[0]

    seconds = wall


class HostClock:
    """Reference seconds, from ticks of a reference loop on a timer signal.

    While a :class:`tracing.Tracer` is attached (``tracer``), each tick's
    time is also taken out of the self time of the span it interrupted.
    """

    def __init__(self) -> None:
        self.ticks: List[float] = []
        self.tick_s = 0.0
        self.tracer = None

    def _tick(self, _signum, _frame) -> None:
        started = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - started
        self.ticks.append(took)
        self.tick_s += took
        if self.tracer is not None:
            self.tracer.pause(took)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        # Restart interrupted system calls (sqlite I/O) instead of failing them.
        signal.siginterrupt(signal.SIGALRM, False)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> Mark:
        return (time.perf_counter(), len(self.ticks), self.tick_s)

    def wall(self, start: Mark, end: Mark) -> float:
        """Wall seconds between the marks, ticks left out."""
        return (end[0] - start[0]) - (end[2] - start[2])

    def seconds(self, start: Mark, end: Mark) -> float:
        """Reference seconds between the marks."""
        first, last = start[1], end[1]
        if last - first < 2:
            # A short interval: use the ticks on either side of it as well.
            first, last = max(0, first - 1), min(len(self.ticks), last + 1)
        ticks = self.ticks[first:last]
        return self.wall(start, end) * REFERENCE_TICK_S * len(ticks) / sum(ticks)
