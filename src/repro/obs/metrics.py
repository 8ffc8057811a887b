"""Metrics registry: counters, gauges, and fixed-bucket histograms.

This is the aggregate complement of the tracer: cheap to keep *always
on*, so steady-state surfaces (``engine.stats()``, the pump's
``_PumpStats``) are backed by it rather than by ad-hoc counter fields.

Histograms use fixed exponential buckets, so percentile queries
(p50/p95/p99 of queue-wait, service, and end-to-end latency per
destination) are O(buckets) with bounded error and constant memory —
the standard Prometheus-style trade.  Observations also track exact
count/sum/min/max, so means are exact even though percentiles are
bucket-interpolated.

Metric identity is ``(name, labels)`` where ``labels`` is a sorted tuple
of ``(key, value)`` pairs; the common case is a single ``destination``
label mirroring the pump's per-destination accounting.
"""

import bisect
import threading


def _labels_key(labels):
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


#: Default latency buckets (seconds): 100µs .. ~100s, ~1.47x steps.
def exponential_buckets(start=1e-4, factor=1.4678, count=36):
    edges = []
    edge = start
    for _ in range(count):
        edges.append(edge)
        edge *= factor
    return edges


DEFAULT_LATENCY_BUCKETS = exponential_buckets()


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name, labels, lock):
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = lock

    def inc(self, amount=1):
        with self._lock:
            self.value += amount
            return self.value


class Gauge:
    """A value that can go up and down (e.g. in-flight calls)."""

    __slots__ = ("name", "labels", "value", "max_value", "_lock")

    def __init__(self, name, labels, lock):
        self.name = name
        self.labels = labels
        self.value = 0
        self.max_value = 0
        self._lock = lock

    def set(self, value):
        with self._lock:
            self.value = value
            self.max_value = max(self.max_value, value)
            return self.value

    def inc(self, amount=1):
        with self._lock:
            self.value += amount
            self.max_value = max(self.max_value, self.value)
            return self.value

    def dec(self, amount=1):
        return self.inc(-amount)


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max."""

    __slots__ = (
        "name",
        "labels",
        "buckets",
        "counts",
        "overflow",
        "count",
        "total",
        "min",
        "max",
        "_lock",
    )

    def __init__(self, name, labels, lock, buckets=None):
        self.name = name
        self.labels = labels
        self.buckets = list(buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS)
        if self.buckets != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted ascending")
        self.counts = [0] * len(self.buckets)
        self.overflow = 0  # observations above the last edge
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._lock = lock

    def observe(self, value, count=1):
        """Record *count* observations of *value* (one lock, one bucket search)."""
        with self._lock:
            self.count += count
            self.total += value * count
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            index = bisect.bisect_left(self.buckets, value)
            if index >= len(self.buckets):
                self.overflow += count
            else:
                self.counts[index] += count

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, q):
        """Value at quantile *q* in [0, 1], interpolated within a bucket.

        Returns ``None`` with no observations.  Error is bounded by the
        enclosing bucket's width; exact min/max clamp the tails.
        """
        with self._lock:
            if self.count == 0:
                return None
            if q <= 0:
                return self.min
            if q >= 1:
                return self.max
            target = q * self.count
            seen = 0.0
            lower = 0.0
            for edge, bucket_count in zip(self.buckets, self.counts):
                if bucket_count:
                    if seen + bucket_count >= target:
                        fraction = (target - seen) / bucket_count
                        estimate = lower + fraction * (edge - lower)
                        return min(max(estimate, self.min), self.max)
                    seen += bucket_count
                lower = edge
            return self.max  # overflow bucket

    def summary(self):
        with self._lock:
            count, total = self.count, self.total
            low, high = self.min, self.max
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": low,
            "max": high,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Named, labelled metrics with a JSON-able snapshot."""

    def __init__(self, latency_buckets=None):
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._latency_buckets = (
            list(latency_buckets)
            if latency_buckets is not None
            else DEFAULT_LATENCY_BUCKETS
        )

    # -- accessors (get-or-create) --------------------------------------------

    def counter(self, name, **labels):
        key = (name, _labels_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(
                    key, Counter(name, dict(labels), self._lock)
                )
        return counter

    def gauge(self, name, **labels):
        key = (name, _labels_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(
                    key, Gauge(name, dict(labels), self._lock)
                )
        return gauge

    def histogram(self, name, buckets=None, **labels):
        key = (name, _labels_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    key,
                    Histogram(
                        name,
                        dict(labels),
                        self._lock,
                        buckets if buckets is not None else self._latency_buckets,
                    ),
                )
        return histogram

    # -- convenience ----------------------------------------------------------

    def inc(self, name, amount=1, **labels):
        return self.counter(name, **labels).inc(amount)

    def observe(self, name, value, **labels):
        self.histogram(name, **labels).observe(value)

    def counter_value(self, name, **labels):
        counter = self._counters.get((name, _labels_key(labels)))
        return counter.value if counter is not None else 0

    # -- export ---------------------------------------------------------------

    def snapshot(self):
        """Everything, as plain dicts (stable key order)."""

        def render_key(metric):
            if not metric.labels:
                return metric.name
            label_text = ",".join(
                "{}={}".format(k, v) for k, v in sorted(metric.labels.items())
            )
            return "{}{{{}}}".format(metric.name, label_text)

        with self._lock:
            counters = {render_key(c): c.value for c in self._counters.values()}
            gauges = {
                render_key(g): {"value": g.value, "max": g.max_value}
                for g in self._gauges.values()
            }
            histogram_list = list(self._histograms.values())
        histograms = {render_key(h): h.summary() for h in histogram_list}
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def to_prometheus(self):
        """The registry in Prometheus text exposition format (version 0.0.4).

        Metric names are sanitized (``request.service_seconds`` →
        ``request_service_seconds``); histograms render the standard
        cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``
        (the overflow bucket becomes ``le="+Inf"``), and gauges add a
        ``_max`` companion series for their high-water mark.  The output
        is deterministic: families and label sets sort lexicographically.
        """
        with self._lock:
            counters = sorted(
                self._counters.items(), key=lambda kv: (kv[0][0], kv[0][1])
            )
            gauges = sorted(
                self._gauges.items(), key=lambda kv: (kv[0][0], kv[0][1])
            )
            histograms = sorted(
                self._histograms.items(), key=lambda kv: (kv[0][0], kv[0][1])
            )
        lines = []

        def family(name, kind):
            lines.append("# TYPE {} {}".format(name, kind))

        seen_types = set()
        for (name, _), counter in counters:
            metric = _prom_name(name)
            if metric not in seen_types:
                seen_types.add(metric)
                family(metric, "counter")
            lines.append(
                "{}{} {}".format(
                    metric, _prom_labels(counter.labels), _prom_value(counter.value)
                )
            )
        for (name, _), gauge in gauges:
            metric = _prom_name(name)
            if metric not in seen_types:
                seen_types.add(metric)
                family(metric, "gauge")
                family(metric + "_max", "gauge")
            labels = _prom_labels(gauge.labels)
            lines.append("{}{} {}".format(metric, labels, _prom_value(gauge.value)))
            lines.append(
                "{}_max{} {}".format(metric, labels, _prom_value(gauge.max_value))
            )
        for (name, _), histogram in histograms:
            metric = _prom_name(name)
            if metric not in seen_types:
                seen_types.add(metric)
                family(metric, "histogram")
            with histogram._lock:
                edges = list(histogram.buckets)
                bucket_counts = list(histogram.counts)
                count = histogram.count
                total = histogram.total
            cumulative = 0
            for edge, in_bucket in zip(edges, bucket_counts):
                cumulative += in_bucket
                lines.append(
                    "{}_bucket{} {}".format(
                        metric,
                        _prom_labels(histogram.labels, le=_prom_value(edge)),
                        cumulative,
                    )
                )
            lines.append(
                "{}_bucket{} {}".format(
                    metric, _prom_labels(histogram.labels, le="+Inf"), count
                )
            )
            labels = _prom_labels(histogram.labels)
            lines.append("{}_sum{} {}".format(metric, labels, _prom_value(total)))
            lines.append("{}_count{} {}".format(metric, labels, count))
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self):
        return "MetricsRegistry({} counters, {} gauges, {} histograms)".format(
            len(self._counters), len(self._gauges), len(self._histograms)
        )


def _prom_name(name):
    """Sanitize a dotted metric name for Prometheus exposition."""
    out = []
    for index, char in enumerate(name):
        if char.isalnum() or char == "_" or (char == ":" and index):
            out.append(char)
        else:
            out.append("_")
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out)


def _prom_labels(labels, **extra):
    """Render a label dict (plus overrides) as ``{k="v",...}`` or ``""``."""
    merged = dict(labels or {})
    merged.update(extra)
    if not merged:
        return ""
    parts = []
    for key, value in sorted(merged.items()):
        text = str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        parts.append('{}="{}"'.format(_prom_name(str(key)), text))
    return "{" + ",".join(parts) + "}"


def _prom_value(value):
    """Numbers without float noise: integral floats render as integers."""
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return {float("inf"): "+Inf", float("-inf"): "-Inf"}.get(value, "NaN")
        if value.is_integer():
            return str(int(value))
        return repr(value)
    return str(value)
