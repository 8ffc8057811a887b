"""Per-request latency models.

The paper's whole motivation is that a search-engine round trip costs
"one or more seconds" while the query processor idles.  We model that
delay explicitly and deterministically: a latency model maps
``(engine_name, expression_text)`` to seconds.  An attempt yields that
delay and the request pump's timer heap resumes it when the time has
passed, so N concurrent requests cost ~max of their delays rather than
the sum — exactly the effect asynchronous iteration exploits (a
synchronous plan keeps one request outstanding and pays the sum).

Benchmarks scale the delay down (tens of milliseconds instead of seconds);
the *ratio* between sequential and concurrent execution, which is what
Table 1 reports, is unaffected.
"""

from repro.util.rng import stable_uniform


class LatencyModel:
    """Base class: map a request to a delay in seconds."""

    def delay(self, engine_name, expr_text):
        raise NotImplementedError


class ZeroLatency(LatencyModel):
    """No delay — for unit tests."""

    def delay(self, engine_name, expr_text):
        return 0.0


class FixedLatency(LatencyModel):
    """The same delay for every request."""

    def __init__(self, seconds):
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        self.seconds = seconds

    def delay(self, engine_name, expr_text):
        return self.seconds


class UniformLatency(LatencyModel):
    """Deterministic per-request delay, uniform in [low, high).

    The delay is a stable function of the request (and *salt*), so sync
    and async runs of the same workload see identical per-request costs —
    the fair-comparison property Table 1 needs.
    """

    def __init__(self, low, high, salt=0):
        if not 0 <= low <= high:
            raise ValueError("require 0 <= low <= high")
        self.low = low
        self.high = high
        self.salt = salt

    def delay(self, engine_name, expr_text):
        u = stable_uniform("latency", self.salt, engine_name, expr_text)
        return self.low + u * (self.high - self.low)
