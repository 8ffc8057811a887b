"""Trace-calibrated cost-model profiles: the observability feedback loop.

The paper's performance argument (Sections 5–6) is conditional: the
asynchronous rewrite wins *given* the real latency and concurrency
profile of the external sources.  The planner's
:class:`~repro.plan.cost.CostModel` prices plans from hand-picked
constants; meanwhile the tracer and
:class:`~repro.obs.metrics.MetricsRegistry` record the true
per-destination service latencies, cache hit ratios and result fan-out
on every run.  This module closes the loop:

    trace/metrics  →  CalibrationProfile  →  CostModel  →  plan choice

- :class:`CalibrationProfile` is the measured summary: one
  :class:`DestinationCalibration` per external destination (mean
  latency from ``request.service_seconds{destination=}`` and observed
  result fan-out per call) plus the observed cache hit ratio, built from
  a live tracer and registry by :meth:`CalibrationProfile.from_sources`.
- **Incompleteness is explicit**: the tracer's ring buffer evicts old
  events under pressure; a profile built from a wrapped ring sets
  ``incomplete=True`` (and records ``dropped_events``), and its
  :meth:`~CalibrationProfile.summary` says so.

``engine.recalibrate()`` builds a profile from the engine's own tracer,
registry and cache and applies it to the engine's cost model
(:meth:`repro.plan.cost.CostModel.apply_profile`).
"""

from repro.obs.analysis import destination_latencies, request_table
from repro.obs.trace import CACHE_HIT, CACHE_MISS, SYNC_PATCH


class DestinationCalibration:
    """Measured behavior of one external destination."""

    __slots__ = ("destination", "samples", "latency_mean", "fanout")

    def __init__(self, destination, samples=0, latency_mean=None, fanout=None):
        self.destination = destination
        self.samples = samples
        self.latency_mean = latency_mean
        #: Observed result rows per completed call (the vtable's
        #: effective selectivity / ReqSync proliferation driver).
        self.fanout = fanout

    def __repr__(self):
        mean = (
            "{:.4f}s".format(self.latency_mean)
            if self.latency_mean is not None
            else "?"
        )
        return "DestinationCalibration({!r}, n={}, mean={})".format(
            self.destination, self.samples, mean
        )


class CalibrationProfile:
    """A measured performance profile, buildable from live observability.

    ``destinations`` maps destination name →
    :class:`DestinationCalibration`; ``cache_hit_ratio`` is the observed
    fraction of cache lookups served locally (``None`` = no cache
    traffic observed); ``samples`` counts the settled calls backing the
    latency figures; ``incomplete`` is True when the source ring buffer
    dropped events.
    """

    def __init__(
        self,
        destinations=None,
        cache_hit_ratio=None,
        samples=0,
        dropped_events=0,
        incomplete=False,
    ):
        self.destinations = dict(destinations or {})
        self.cache_hit_ratio = cache_hit_ratio
        self.samples = samples
        self.dropped_events = dropped_events
        self.incomplete = incomplete

    @classmethod
    def from_sources(cls, tracer=None, metrics=None, cache=None):
        """Build a profile from a tracer and/or metrics registry.

        The two sources are complementary and merged per destination:

        - the **registry** (always on, unbounded retention) supplies the
          latency figures — exact count and mean from
          ``request.service_seconds{destination=}``;
        - the **tracer** (bounded ring) supplies what only event
          correlation can know: per-call result fan-out (``reqsync.patch``
          ``rows=`` joined to the call's destination) and — when no
          registry is given — a fallback latency mean from the buffered
          window.

        The cache hit ratio prefers a live *cache* object's
        ``hit_ratio()`` (exact); without one it is derived
        from ``cache.{hit,miss}`` trace events.
        """
        destinations = {}

        def entry(name):
            calibration = destinations.get(name)
            if calibration is None:
                calibration = DestinationCalibration(name)
                destinations[name] = calibration
            return calibration

        # Registry first: durable latency statistics per destination.
        if metrics is not None:
            for histogram in metrics.histograms_named("request.service_seconds"):
                destination = histogram.labels.get("destination")
                if destination is None or not histogram.count:
                    continue
                calibration = entry(destination)
                summary = histogram.summary()
                calibration.samples = summary["count"]
                calibration.latency_mean = summary["mean"]

        dropped = 0
        if tracer is not None:
            dropped = tracer.dropped
            events = tracer.events()
            # Trace-derived latency only where the registry had nothing.
            for destination, buckets in destination_latencies(events).items():
                services = buckets["service"]
                if not services:
                    continue
                calibration = entry(destination)
                if calibration.samples == 0:
                    calibration.samples = len(services)
                    calibration.latency_mean = sum(services) / len(services)
            # Per-call fan-out needs correlation.
            call_destinations = {
                call_id: record.destination
                for call_id, record in request_table(events).items()
                if record.destination is not None
            }
            fanout_samples = {}  # destination -> [rows per patched call]
            for event in events:
                if event.name != SYNC_PATCH:
                    continue
                rows = event.args.get("rows")
                destination = call_destinations.get(event.call_id)
                if rows is not None and destination is not None:
                    fanout_samples.setdefault(destination, []).append(rows)
            for destination, rows_list in fanout_samples.items():
                entry(destination).fanout = sum(rows_list) / len(rows_list)

        return cls(
            destinations=destinations,
            cache_hit_ratio=_observed_hit_ratio(cache, tracer),
            samples=sum(c.samples for c in destinations.values()),
            dropped_events=dropped,
            incomplete=dropped > 0,
        )

    def latency_mean(self):
        """Sample-weighted mean latency across destinations (or ``None``)."""
        total = weighted = 0.0
        for calibration in self.destinations.values():
            if calibration.latency_mean is None or not calibration.samples:
                continue
            weighted += calibration.latency_mean * calibration.samples
            total += calibration.samples
        return weighted / total if total else None

    def summary(self):
        """One human line, for explains and logs."""
        parts = [
            "{} destination(s)".format(len(self.destinations)),
            "{} sample(s)".format(self.samples),
        ]
        if self.cache_hit_ratio is not None:
            parts.append("cache hit-ratio {:.0%}".format(self.cache_hit_ratio))
        if self.incomplete:
            parts.append("INCOMPLETE ({} dropped)".format(self.dropped_events))
        return ", ".join(parts)

    def __repr__(self):
        return "CalibrationProfile({})".format(self.summary())


def _observed_hit_ratio(cache, tracer):
    """Hit ratio: live cache (exact) > trace-event derivation > None."""
    if cache is not None and (cache.hits or cache.misses):
        return float(cache.hit_ratio())
    if tracer is not None:
        hits = misses = 0
        for event in tracer.events((CACHE_HIT, CACHE_MISS)):
            if event.name == CACHE_MISS:
                misses += 1
            else:
                hits += 1
        total = hits + misses
        if total:
            return hits / total
    return None
