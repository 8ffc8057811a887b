"""Trace-calibrated cost-model profiles: the observability feedback loop.

The paper's performance argument (Sections 5–6) is conditional: the
asynchronous rewrite wins *given* the real latency and concurrency
profile of the external sources.  The planner's
:class:`~repro.plan.cost.CostModel` historically priced plans from
hand-picked constants; meanwhile the tracer and
:class:`~repro.obs.metrics.MetricsRegistry` record the true
per-destination service latencies, cache hit ratios, ReqSync
proliferation, and achieved concurrency on every run.  This module
closes the loop:

    trace/metrics  →  CalibrationProfile  →  CostModel  →  plan choice

- :class:`CalibrationProfile` is the measured summary: one
  :class:`DestinationCalibration` per external destination (latency
  mean/p50/p95 from ``request.service_seconds{destination=}``, observed
  result fan-out per call, achieved concurrency), the observed cache hit
  ratio, and the ReqSync proliferation fan-out.  Profiles are built from
  a live :class:`~repro.obs.Observability` bundle
  (:meth:`CalibrationProfile.from_sources`) and persist as versioned
  JSON (:meth:`~CalibrationProfile.save` / :meth:`~CalibrationProfile.load`)
  validated by :func:`validate_profile` — the same dependency-free
  checker style as :func:`~repro.obs.schema.validate_chrome_trace`.
- **Incompleteness is explicit**: the tracer's ring buffer evicts old
  events under pressure; a profile built from a wrapped ring sets
  ``incomplete=True`` (and records ``dropped_events``) so consumers can
  refuse to calibrate from partial data instead of silently skewing.
- :class:`CalibrationPolicy` is the opt-in gate a serving layer uses to
  recalibrate periodically from live traffic: a minimum-sample floor, an
  interval, and an incomplete-profile policy.

The cost-model side lives in :mod:`repro.plan.cost`
(``CostModel.from_profile`` / ``apply_profile``); the serving side in
:class:`repro.serve.session.QueryService` (``calibration=`` +
``maybe_recalibrate``); ``WsqEngine(calibration=...)`` and
``engine.recalibrate()`` wire it through a single engine.
"""

import json

from repro.obs.analysis import destination_latencies, overlap_factor, request_table
from repro.obs.trace import CACHE_HIT, CACHE_MISS, CACHE_STALE, SYNC_PATCH

#: Version stamp written into every persisted profile; bump on any
#: backwards-incompatible field change.
PROFILE_VERSION = 1

#: The ``kind`` discriminator persisted profiles carry.
PROFILE_KIND = "repro.calibration_profile"

#: Default minimum settled-call count before a profile is trustworthy.
DEFAULT_MIN_SAMPLES = 30


def _percentile(sorted_values, q):
    """Exact linear-interpolation percentile of a pre-sorted list."""
    if not sorted_values:
        return None
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1 - fraction) + sorted_values[high] * fraction


class DestinationCalibration:
    """Measured behavior of one external destination."""

    __slots__ = (
        "destination",
        "samples",
        "latency_mean",
        "latency_p50",
        "latency_p95",
        "fanout",
        "concurrency",
    )

    def __init__(
        self,
        destination,
        samples=0,
        latency_mean=None,
        latency_p50=None,
        latency_p95=None,
        fanout=None,
        concurrency=None,
    ):
        self.destination = destination
        self.samples = samples
        self.latency_mean = latency_mean
        self.latency_p50 = latency_p50
        self.latency_p95 = latency_p95
        #: Observed result rows per completed call (the vtable's
        #: effective selectivity / ReqSync proliferation driver).
        self.fanout = fanout
        #: Peak simultaneously in-service calls observed (trace-derived).
        self.concurrency = concurrency

    def to_dict(self):
        return {
            "samples": self.samples,
            "latency_mean": self.latency_mean,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "fanout": self.fanout,
            "concurrency": self.concurrency,
        }

    @classmethod
    def from_dict(cls, destination, payload):
        return cls(
            destination,
            samples=payload.get("samples", 0),
            latency_mean=payload.get("latency_mean"),
            latency_p50=payload.get("latency_p50"),
            latency_p95=payload.get("latency_p95"),
            fanout=payload.get("fanout"),
            concurrency=payload.get("concurrency"),
        )

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
    traffic observed); ``reqsync_fanout`` is the mean result rows per
    patched external call (1.0 = no proliferation); ``samples`` counts
    the settled calls backing the latency figures; ``incomplete`` is
    True when the source ring buffer dropped events.
    """

    def __init__(
        self,
        destinations=None,
        cache_hit_ratio=None,
        reqsync_fanout=None,
        samples=0,
        dropped_events=0,
        incomplete=False,
        created_at=None,
        version=PROFILE_VERSION,
    ):
        self.destinations = dict(destinations or {})
        self.cache_hit_ratio = cache_hit_ratio
        self.reqsync_fanout = reqsync_fanout
        self.samples = samples
        self.dropped_events = dropped_events
        self.incomplete = incomplete
        self.created_at = created_at
        self.version = version

    # -- construction from live observability ---------------------------------

    @classmethod
    def from_observability(cls, obs, cache=None):
        """Build from an :class:`~repro.obs.Observability` bundle."""
        return cls.from_sources(
            tracer=obs.tracer,
            metrics=obs.metrics,
            cache=cache,
            created_at=obs.clock.now(),
        )

    @classmethod
    def from_sources(cls, tracer=None, metrics=None, cache=None, created_at=None):
        """Build a profile from a tracer and/or metrics registry.

        The two sources are complementary and merged per destination:

        - the **registry** (always on, unbounded retention) supplies the
          latency figures — exact count/mean plus bucket-interpolated
          p50/p95 from ``request.service_seconds{destination=}``;
        - the **tracer** (bounded ring) supplies what only event
          correlation can know: per-call result fan-out (``reqsync.patch``
          ``rows=`` joined to the call's destination), achieved
          concurrency (:func:`~repro.obs.analysis.overlap_factor` per
          destination), and — when no registry is given — fallback
          latency percentiles from the buffered window.

        The cache hit ratio prefers a live *cache* object's
        ``hit_ratio()`` (exact); without one it is derived
        from ``cache.{hit,stale,miss}`` trace events.
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
                calibration.latency_p50 = summary["p50"]
                calibration.latency_p95 = summary["p95"]

        dropped = 0
        reqsync_fanout = None
        if tracer is not None:
            dropped = tracer.dropped
            events = tracer.events()
            # Trace-derived latency only where the registry had nothing.
            for destination, buckets in destination_latencies(events).items():
                services = sorted(buckets["service"])
                if not services:
                    continue
                calibration = entry(destination)
                if calibration.samples == 0:
                    calibration.samples = len(services)
                    calibration.latency_mean = sum(services) / len(services)
                    calibration.latency_p50 = _percentile(services, 0.50)
                    calibration.latency_p95 = _percentile(services, 0.95)
            # Achieved concurrency and per-call fan-out need correlation.
            call_destinations = {
                call_id: record.destination
                for call_id, record in request_table(events).items()
                if record.destination is not None
            }
            fanout_samples = {}  # destination -> [rows per patched call]
            all_rows = []
            for event in events:
                if event.name != SYNC_PATCH:
                    continue
                rows = event.args.get("rows")
                if rows is None:
                    continue
                all_rows.append(rows)
                destination = call_destinations.get(event.call_id)
                if destination is not None:
                    fanout_samples.setdefault(destination, []).append(rows)
            for destination, rows_list in fanout_samples.items():
                entry(destination).fanout = sum(rows_list) / len(rows_list)
            if all_rows:
                reqsync_fanout = sum(all_rows) / len(all_rows)
            for destination in destinations:
                peak = overlap_factor(events, destination=destination)
                if peak:
                    destinations[destination].concurrency = float(peak)

        cache_hit_ratio = _observed_hit_ratio(cache, tracer)
        samples = sum(c.samples for c in destinations.values())
        return cls(
            destinations=destinations,
            cache_hit_ratio=cache_hit_ratio,
            reqsync_fanout=reqsync_fanout,
            samples=samples,
            dropped_events=dropped,
            incomplete=dropped > 0,
            created_at=created_at,
        )

    # -- derived views ---------------------------------------------------------

    def latency_mean(self):
        """Sample-weighted mean latency across destinations (or ``None``)."""
        total = weighted = 0.0
        for calibration in self.destinations.values():
            if calibration.latency_mean is None or not calibration.samples:
                continue
            weighted += calibration.latency_mean * calibration.samples
            total += calibration.samples
        return weighted / total if total else None

    def destination_latency(self, destination):
        """Mean service latency for *destination* (or ``None``)."""
        calibration = self.destinations.get(destination)
        if calibration is None:
            return None
        return calibration.latency_mean

    def destination_fanout(self, destination):
        calibration = self.destinations.get(destination)
        if calibration is None:
            return None
        return calibration.fanout

    def effective_concurrency(self, destination):
        calibration = self.destinations.get(destination)
        if calibration is None:
            return None
        return calibration.concurrency

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

    # -- persistence -----------------------------------------------------------

    def to_dict(self):
        return {
            "kind": PROFILE_KIND,
            "version": self.version,
            "created_at": self.created_at,
            "samples": self.samples,
            "dropped_events": self.dropped_events,
            "incomplete": self.incomplete,
            "cache_hit_ratio": self.cache_hit_ratio,
            "reqsync_fanout": self.reqsync_fanout,
            "destinations": {
                name: calibration.to_dict()
                for name, calibration in sorted(self.destinations.items())
            },
        }

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a profile from :meth:`to_dict` output (validated)."""
        assert_valid_profile(payload)
        return cls(
            destinations={
                name: DestinationCalibration.from_dict(name, entry)
                for name, entry in payload.get("destinations", {}).items()
            },
            cache_hit_ratio=payload.get("cache_hit_ratio"),
            reqsync_fanout=payload.get("reqsync_fanout"),
            samples=payload.get("samples", 0),
            dropped_events=payload.get("dropped_events", 0),
            incomplete=payload.get("incomplete", False),
            created_at=payload.get("created_at"),
            version=payload["version"],
        )

    def save(self, path):
        """Write the validated JSON form to *path*; returns the payload."""
        payload = self.to_dict()
        assert_valid_profile(payload)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
        return payload

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def __repr__(self):
        return "CalibrationProfile({})".format(self.summary())


def _observed_hit_ratio(cache, tracer):
    """Hit ratio: live cache (exact) > trace-event derivation > None."""
    if cache is not None and (cache.hits or cache.misses):
        return float(cache.hit_ratio())
    if tracer is not None:
        hits = misses = 0
        for event in tracer.events((CACHE_HIT, CACHE_STALE, CACHE_MISS)):
            if event.name == CACHE_MISS:
                misses += 1
            else:
                hits += 1
        total = hits + misses
        if total:
            return hits / total
    return None


# -- schema validation ---------------------------------------------------------

_NUMBER = (int, float)

#: destination entry: field -> (required, validator)
_DESTINATION_FIELDS = {
    "samples": lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
    "latency_mean": lambda v: v is None or (_is_number(v) and v >= 0),
    "latency_p50": lambda v: v is None or (_is_number(v) and v >= 0),
    "latency_p95": lambda v: v is None or (_is_number(v) and v >= 0),
    "fanout": lambda v: v is None or (_is_number(v) and v >= 0),
    "concurrency": lambda v: v is None or (_is_number(v) and v >= 0),
}


def _is_number(value):
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


def validate_profile(payload):
    """Structural check of a persisted profile; returns problem strings.

    Same contract as :func:`~repro.obs.schema.validate_chrome_trace`:
    dependency-free, an empty list means valid, and CI can reject a
    malformed artifact before anything consumes it.
    """
    errors = []
    if not isinstance(payload, dict):
        return [
            "top-level value must be an object, got {}".format(
                type(payload).__name__
            )
        ]
    if payload.get("kind") != PROFILE_KIND:
        errors.append(
            "kind must be {!r}, got {!r}".format(PROFILE_KIND, payload.get("kind"))
        )
    version = payload.get("version")
    if not isinstance(version, int) or isinstance(version, bool):
        errors.append("version must be an integer")
    elif version > PROFILE_VERSION:
        errors.append(
            "version {} is newer than supported {}".format(version, PROFILE_VERSION)
        )
    samples = payload.get("samples")
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 0:
        errors.append("samples must be a non-negative integer")
    dropped = payload.get("dropped_events", 0)
    if not isinstance(dropped, int) or isinstance(dropped, bool) or dropped < 0:
        errors.append("dropped_events must be a non-negative integer")
    if not isinstance(payload.get("incomplete", False), bool):
        errors.append("incomplete must be a boolean")
    ratio = payload.get("cache_hit_ratio")
    if ratio is not None and not (_is_number(ratio) and 0.0 <= ratio <= 1.0):
        errors.append("cache_hit_ratio must be null or a number in [0, 1]")
    fanout = payload.get("reqsync_fanout")
    if fanout is not None and not (_is_number(fanout) and fanout >= 0):
        errors.append("reqsync_fanout must be null or a non-negative number")
    destinations = payload.get("destinations")
    if not isinstance(destinations, dict):
        errors.append("destinations must be an object")
        return errors
    for name, entry in destinations.items():
        where = "destinations[{!r}]".format(name)
        if not isinstance(name, str) or not name:
            errors.append("{}: destination names must be non-empty strings".format(where))
            continue
        if not isinstance(entry, dict):
            errors.append("{}: not an object".format(where))
            continue
        for field, check in _DESTINATION_FIELDS.items():
            if field not in entry:
                errors.append("{}: missing field {!r}".format(where, field))
            elif not check(entry[field]):
                errors.append(
                    "{}: bad value for {!r}: {!r}".format(where, field, entry[field])
                )
    return errors


def assert_valid_profile(payload):
    """Raise ``ValueError`` with every problem if *payload* is invalid."""
    errors = validate_profile(payload)
    if errors:
        raise ValueError(
            "invalid calibration profile ({} problem(s)):\n  {}".format(
                len(errors), "\n  ".join(errors[:20])
            )
        )
    return payload


class CalibrationPolicy:
    """Opt-in policy for recalibrating a cost model from live traffic.

    ``interval_seconds``
        Minimum seconds between recalibrations (the serving layer's
        reaper checks it on its sweep cadence).
    ``min_samples``
        Profiles backed by fewer settled calls are rejected — early
        traffic is too noisy to steer the planner.
    ``allow_incomplete``
        Whether a profile built from a wrapped trace ring (events
        dropped, so the window under-represents old calls) may still be
        applied.  Off by default: a silently skewed profile is worse
        than a stale one.
    """

    __slots__ = ("interval_seconds", "min_samples", "allow_incomplete")

    def __init__(
        self,
        interval_seconds=60.0,
        min_samples=DEFAULT_MIN_SAMPLES,
        allow_incomplete=False,
    ):
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if min_samples < 0:
            raise ValueError("min_samples cannot be negative")
        self.interval_seconds = interval_seconds
        self.min_samples = min_samples
        self.allow_incomplete = allow_incomplete

    def admits(self, profile):
        """``(ok, reason)`` — whether *profile* may steer the cost model."""
        if profile.samples < self.min_samples:
            return False, "insufficient samples ({} < {})".format(
                profile.samples, self.min_samples
            )
        if profile.incomplete and not self.allow_incomplete:
            return False, "profile incomplete ({} events dropped)".format(
                profile.dropped_events
            )
        return True, "ok"

    def __repr__(self):
        return (
            "CalibrationPolicy(interval={}s, min_samples={}, "
            "allow_incomplete={})".format(
                self.interval_seconds, self.min_samples, self.allow_incomplete
            )
        )
