"""repro.obs — the unified observability subsystem.

Three layers, one bundle:

- :class:`~repro.obs.trace.Tracer` — ring-buffered structured events for
  the request lifecycle (register → enqueue → issue → retry*/timeout*/
  breaker-reject* → complete/cancel/fail), operator spans, and ReqSync
  wait/patch/proliferate, correlated by call id and query id.
- :class:`~repro.obs.metrics.MetricsRegistry` — always-on counters,
  gauges, and fixed-bucket histograms (p50/p95/p99 queue-wait, service,
  and end-to-end latency per destination); the pump's statistics are a
  view over it.
- exporters — Chrome-trace/Perfetto JSON (one track per destination
  slot, so overlap is visible geometry), a CLI waterfall, Prometheus
  text exposition, and JSON metrics dumps, plus tiny schema checkers
  for CI.

:class:`Observability` is the bundle an engine threads through its
components; ``Observability.disabled()`` (the default) costs one ``is
None`` check per would-be event.
"""

from repro.obs.analysis import destination_latencies, overlap_factor, request_table
from repro.obs.export import (
    metrics_json,
    render_waterfall,
    to_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import (
    assert_valid_chrome_trace,
    validate_chrome_trace,
    validate_trace_events,
)
from repro.obs.trace import Tracer, TraceEvent, enabled_tracer
from repro.util.timing import resolve_clock


class Observability:
    """Tracer + metrics + clock, wired through an engine as one handle."""

    def __init__(self, tracer=None, metrics=None, clock=None):
        self.clock = resolve_clock(
            clock
            if clock is not None
            else (tracer.clock if tracer is not None else None)
        )
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @classmethod
    def enabled(cls, clock=None, capacity=None):
        """Tracing on: a fresh tracer + registry on a shared clock."""
        clock = resolve_clock(clock)
        kwargs = {} if capacity is None else {"capacity": capacity}
        return cls(tracer=Tracer(clock=clock, **kwargs), clock=clock)

    @classmethod
    def disabled(cls, clock=None):
        """No tracer; metrics stay on (they are cheap and always useful)."""
        return cls(tracer=None, clock=clock)

    @property
    def tracing(self):
        return self.tracer is not None

    def chrome_trace(self):
        """The buffered events as a Chrome-trace dict (empty if disabled)."""
        if self.tracer is None:
            return to_chrome_trace([])
        return to_chrome_trace(self.tracer.events())

    def __repr__(self):
        return "Observability(tracing={}, {!r})".format(self.tracing, self.metrics)


__all__ = [
    "MetricsRegistry",
    "Observability",
    "TraceEvent",
    "Tracer",
    "assert_valid_chrome_trace",
    "destination_latencies",
    "enabled_tracer",
    "metrics_json",
    "overlap_factor",
    "render_waterfall",
    "request_table",
    "to_chrome_trace",
    "validate_chrome_trace",
    "validate_trace_events",
    "write_chrome_trace",
    "write_metrics",
]
