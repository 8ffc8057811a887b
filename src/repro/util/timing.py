"""Timing primitives shared by profiling, tracing, and the benchmarks.

Everything that measures wall-clock time in this codebase goes through a
:class:`Clock` so that tests (and the simulated-latency world) can swap
in a :class:`VirtualClock` and get *deterministic* timestamps: a trace of
the same workload is then byte-for-byte reproducible, and latency
histograms assert exact values instead of fuzzy bounds.

The default :class:`SystemClock` is a thin veneer over
``time.perf_counter`` — the monotonic, high-resolution counter every
ad-hoc call site used before this module consolidated them.
"""

import time


class Clock:
    """Interface: monotonic seconds since an arbitrary origin."""

    def now(self):
        raise NotImplementedError

    def __call__(self):  # clock() == clock.now(), perf_counter-style
        return self.now()


class SystemClock(Clock):
    """Real wall-clock time via ``time.perf_counter``."""

    def now(self):
        return time.perf_counter()


class VirtualClock(Clock):
    """A manually advanced clock for deterministic tests and traces.

    ``advance(dt)`` moves time forward; ``now()`` never advances on its
    own, so two reads with no ``advance`` between them are equal — the
    property the trace-determinism tests rely on.
    """

    def __init__(self, start=0.0):
        self._now = float(start)

    def now(self):
        return self._now

    def advance(self, seconds):
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        self._now += seconds
        return self._now


#: Process-wide default clock.  Components take ``clock=None`` and fall
#: back to this, so one assignment can virtualize a whole engine.
SYSTEM_CLOCK = SystemClock()


def resolve_clock(clock):
    """``clock`` if given, else the shared system clock."""
    return clock if clock is not None else SYSTEM_CLOCK

