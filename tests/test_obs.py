"""Observability unit tests: clocks, tracer, metrics, analysis, exporters.

Everything here runs on a :class:`VirtualClock`, so every derived number
(queue wait, service time, percentile, chrome-trace ``dur``) is asserted
*exactly* — no sleeps, no tolerance bands.  The profile-layer fixes
(timed ``close()``, ``hottest()`` on an empty report) are pinned at the
bottom.
"""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    Observability,
    Tracer,
    assert_valid_chrome_trace,
    destination_latencies,
    enabled_tracer,
    metrics_json,
    overlap_factor,
    render_waterfall,
    request_table,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.metrics import exponential_buckets
from repro.obs.trace import (
    BEGIN,
    CALL_COMPLETE,
    CALL_ENQUEUE,
    CALL_ISSUE,
    CALL_REGISTER,
    CALL_RETRY,
    END,
    INSTANT,
)
from repro.relational.batch import ColumnBatch
from repro.util.timing import (
    SYSTEM_CLOCK,
    Stopwatch,
    SystemClock,
    VirtualClock,
    resolve_clock,
)
from repro.wsq.profile import ProfileReport, profile_plan

# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------


class TestClocks:
    def test_virtual_clock_advances(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        clock.advance(0.25)
        assert clock.now() == 1.75

    def test_virtual_clock_start(self):
        assert VirtualClock(start=10.0).now() == 10.0

    def test_virtual_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_clock_is_callable(self):
        clock = VirtualClock(start=3.0)
        assert clock() == 3.0

    def test_resolve_clock(self):
        assert resolve_clock(None) is SYSTEM_CLOCK
        virtual = VirtualClock()
        assert resolve_clock(virtual) is virtual

    def test_system_clock_monotonic(self):
        clock = SystemClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_stopwatch_on_virtual_clock(self):
        clock = VirtualClock()
        watch = Stopwatch(clock=clock)
        with watch.measure():
            clock.advance(0.75)
        assert watch.elapsed == 0.75


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_emit_records_event(self):
        tracer = Tracer(clock=VirtualClock(start=5.0))
        ts = tracer.emit(CALL_REGISTER, call_id=3, query_id=1, destination="AV", key="k")
        assert ts == 5.0
        (event,) = tracer.events()
        assert event.name == CALL_REGISTER
        assert event.kind == INSTANT
        assert event.call_id == 3
        assert event.query_id == 1
        assert event.destination == "AV"
        assert event.args == {"key": "k"}
        assert event.as_dict()["destination"] == "AV"

    def test_explicit_timestamp_wins(self):
        tracer = Tracer(clock=VirtualClock(start=9.0))
        assert tracer.emit("x", ts=2.5) == 2.5
        assert tracer.events()[0].ts == 2.5

    def test_filtering_by_name_and_query(self):
        tracer = Tracer(clock=VirtualClock())
        tracer.emit(CALL_REGISTER, call_id=0, query_id=0)
        tracer.emit(CALL_COMPLETE, call_id=0, query_id=0)
        tracer.emit(CALL_REGISTER, call_id=1, query_id=1)
        assert len(tracer.events(name=CALL_REGISTER)) == 2
        assert len(tracer.events(name=(CALL_REGISTER, CALL_COMPLETE))) == 3
        assert len(tracer.events(query_id=1)) == 1
        assert len(tracer.events(name=CALL_REGISTER, query_id=1)) == 1

    def test_ring_eviction_and_dropped(self):
        tracer = Tracer(capacity=4, clock=VirtualClock())
        for i in range(10):
            tracer.emit("e{}".format(i))
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert [e.name for e in tracer.events()] == ["e6", "e7", "e8", "e9"]
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_span_emits_begin_end(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("op.open", query_id=7, operator="EVScan"):
            clock.advance(0.5)
        begin, end = tracer.events()
        assert (begin.kind, end.kind) == (BEGIN, END)
        assert begin.name == end.name == "op.open"
        assert begin.args == {"operator": "EVScan"}
        assert end.ts - begin.ts == 0.5

    def test_span_records_exception(self):
        tracer = Tracer(clock=VirtualClock())
        with pytest.raises(RuntimeError):
            with tracer.span("query"):
                raise RuntimeError("boom")
        end = tracer.events()[-1]
        assert end.kind == END
        assert "boom" in end.args["error"]

    def test_id_allocation(self):
        tracer = Tracer(clock=VirtualClock())
        assert [tracer.next_query_id() for _ in range(3)] == [0, 1, 2]

    def test_enabled_tracer_normalizes(self):
        tracer = Tracer(clock=VirtualClock())
        assert enabled_tracer(tracer) is tracer
        assert enabled_tracer(None) is None
        assert enabled_tracer("not a tracer") is None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_identity_by_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("reqs", destination="AV")
        b = registry.counter("reqs", destination="AV")
        c = registry.counter("reqs", destination="Google")
        assert a is b
        assert a is not c
        a.inc()
        a.inc(2)
        assert registry.counter_value("reqs", destination="AV") == 3
        assert registry.counter_value("reqs", destination="Google") == 0

    def test_gauge_tracks_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("in_flight")
        gauge.inc()
        gauge.inc()
        gauge.dec()
        gauge.inc()
        assert gauge.value == 2
        assert gauge.max_value == 2
        gauge.set(10)
        assert gauge.max_value == 10

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for ms in range(1, 101):  # 1ms .. 100ms
            hist.observe(ms / 1000.0)
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == pytest.approx(0.001)
        assert summary["max"] == pytest.approx(0.100)
        # Bucketed percentiles are approximate but must be ordered and
        # land in the right decade.
        assert 0.03 < summary["p50"] < 0.07
        assert 0.08 < summary["p95"] <= 0.100
        assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]

    def test_histogram_single_observation(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        hist.observe(0.05)
        summary = hist.summary()
        # Exact min/max clamp the interpolation for tiny samples.
        assert summary["p50"] == pytest.approx(0.05)
        assert summary["p99"] == pytest.approx(0.05)

    def test_snapshot_key_rendering(self):
        registry = MetricsRegistry()
        registry.inc("pump.registered")
        registry.inc("pump.registered", destination="AV")
        registry.observe("request.e2e_seconds", 0.01, destination="AV")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["pump.registered"] == 1
        assert snapshot["counters"]["pump.registered{destination=AV}"] == 1
        histogram = snapshot["histograms"]["request.e2e_seconds{destination=AV}"]
        assert histogram["count"] == 1

    def test_exponential_buckets(self):
        buckets = exponential_buckets(start=1e-3, factor=2.0, count=5)
        assert buckets == pytest.approx([1e-3, 2e-3, 4e-3, 8e-3, 16e-3])
        assert all(b > a for a, b in zip(buckets, buckets[1:]))

    def test_metrics_json_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("n", destination="AV")
        registry.observe("request.e2e_seconds", 0.02, destination="AV")
        assert metrics_json(registry) == registry.snapshot()
        path = tmp_path / "metrics.json"
        write_metrics(str(path), registry)
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(registry.snapshot())
        )


# ---------------------------------------------------------------------------
# Analysis (request table, overlap factor) on a synthetic lifecycle
# ---------------------------------------------------------------------------


def _synthetic_trace():
    """Two overlapping AV requests + one later Google request.

    call 0: register 0.00, enqueue 0.00, issue 0.01, complete 0.05
    call 1: register 0.00, enqueue 0.00, issue 0.02, retry,  complete 0.04
    call 2: register 0.06, enqueue 0.06, issue 0.06, complete 0.08
    """
    clock = VirtualClock()
    tracer = Tracer(clock=clock)

    def lifecycle(call_id, dest, register, issue, settle, retries=0):
        tracer.emit(CALL_REGISTER, call_id=call_id, query_id=0,
                    destination=dest, ts=register, mode="async")
        tracer.emit(CALL_ENQUEUE, call_id=call_id, destination=dest, ts=register)
        tracer.emit(CALL_ISSUE, call_id=call_id, destination=dest, ts=issue)
        for n in range(retries):
            tracer.emit(CALL_RETRY, call_id=call_id, destination=dest,
                        ts=issue, attempt=n, error="TransientWebError")
        tracer.emit(CALL_COMPLETE, call_id=call_id, destination=dest,
                    ts=settle, attempts=retries + 1)

    lifecycle(0, "AV", 0.00, 0.01, 0.05)
    lifecycle(1, "AV", 0.00, 0.02, 0.04, retries=1)
    lifecycle(2, "Google", 0.06, 0.06, 0.08)
    return tracer


class TestAnalysis:
    def test_request_table_intervals_exact(self):
        table = request_table(_synthetic_trace().events())
        assert sorted(table) == [0, 1, 2]
        rec = table[0]
        assert rec.destination == "AV"
        assert rec.queue_wait == pytest.approx(0.01)
        assert rec.service == pytest.approx(0.04)
        assert rec.e2e == pytest.approx(0.05)
        assert rec.outcome == "complete"
        assert table[1].retries == 1
        assert table[2].queue_wait == pytest.approx(0.0)
        as_dict = rec.as_dict()
        assert as_dict["outcome"] == "complete"
        assert as_dict["e2e"] == pytest.approx(0.05)

    def test_overlap_factor(self):
        events = _synthetic_trace().events()
        # Calls 0 and 1 are simultaneously in service during [0.02, 0.04];
        # call 2 runs alone.
        assert overlap_factor(events) == 2
        assert overlap_factor(events, destination="AV") == 2
        assert overlap_factor(events, destination="Google") == 1
        assert overlap_factor([]) == 0

    def test_destination_latencies(self):
        latencies = destination_latencies(_synthetic_trace().events())
        assert sorted(latencies) == ["AV", "Google"]
        assert len(latencies["AV"]["e2e"]) == 2
        assert latencies["Google"]["service"] == [pytest.approx(0.02)]


# ---------------------------------------------------------------------------
# Exporters + schema checker
# ---------------------------------------------------------------------------


class TestChromeExport:
    def test_export_is_valid_and_rebased(self):
        payload = to_chrome_trace(_synthetic_trace().events())
        assert validate_chrome_trace(payload) == []
        assert_valid_chrome_trace(payload)
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 3  # one complete event per issued request
        by_call = {e["args"]["call_id"]: e for e in spans}
        assert by_call[0]["ts"] == pytest.approx(0.01 * 1e6)  # rebased micros
        assert by_call[0]["dur"] == pytest.approx(0.04 * 1e6)
        assert by_call[1]["args"]["retries"] == 1
        assert by_call[0]["args"]["outcome"] == "complete"

    def test_overlapping_requests_get_distinct_slots(self):
        payload = to_chrome_trace(_synthetic_trace().events())
        names = {
            e["tid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        av_tracks = {names[e["tid"]] for e in spans if e["name"].startswith("AV")}
        # Calls 0 and 1 overlap, so AV needs two slots for the geometry.
        assert av_tracks == {"AV slot 0", "AV slot 1"}

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), _synthetic_trace().events())
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_validator_rejects_garbage(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": []}) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        bad_phase = {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "ts": 0}]}
        assert any("ph" in err for err in validate_chrome_trace(bad_phase))
        missing_dur = {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "ts": 0}]}
        assert any("dur" in err for err in validate_chrome_trace(missing_dur))
        negative_ts = {
            "traceEvents": [{"ph": "i", "name": "x", "pid": 1, "ts": -1, "s": "g"}]
        }
        assert any("ts" in err for err in validate_chrome_trace(negative_ts))
        with pytest.raises(ValueError):
            assert_valid_chrome_trace({"traceEvents": []})


class TestWaterfall:
    def test_renders_bars_and_details(self):
        text = render_waterfall(_synthetic_trace().events(), width=40)
        assert "3 request(s)" in text
        assert "AV" in text and "Google" in text
        assert "█" in text  # service time
        assert "·" in text  # queue wait (call 0 waited 10ms)
        assert "retries 1" in text

    def test_empty_trace(self):
        assert render_waterfall([]) == "(no traced requests)"


# ---------------------------------------------------------------------------
# Observability bundle
# ---------------------------------------------------------------------------


class TestObservabilityBundle:
    def test_enabled_shares_clock(self):
        clock = VirtualClock()
        obs = Observability.enabled(clock=clock)
        assert obs.tracing
        assert obs.clock is clock
        assert obs.tracer.clock is clock
        assert isinstance(obs.metrics, MetricsRegistry)

    def test_disabled_keeps_metrics(self):
        obs = Observability.disabled()
        assert not obs.tracing
        assert obs.tracer is None
        obs.metrics.inc("still.works")
        assert obs.metrics.counter_value("still.works") == 1
        assert obs.chrome_trace()["traceEvents"] == []

    def test_capacity_passthrough(self):
        obs = Observability.enabled(capacity=8)
        assert obs.tracer.capacity == 8


# ---------------------------------------------------------------------------
# Profile-layer fixes: timed close(), hottest() on empty stats
# ---------------------------------------------------------------------------


class _FakeOp:
    """Minimal Operator stand-in whose phases advance a virtual clock."""

    def __init__(self, clock, open_cost=0.0, next_cost=0.0, close_cost=0.0, rows=0):
        self.clock = clock
        self.schema = None
        self.children = ()
        self.open_cost = open_cost
        self.next_cost = next_cost
        self.close_cost = close_cost
        self._remaining = rows

    def open(self, bindings=None):
        self.clock.advance(self.open_cost)

    def next_batch(self, max_rows=None):
        self.clock.advance(self.next_cost)
        if self._remaining <= 0:
            return None
        self._remaining -= 1
        return ColumnBatch.from_rows(None, [("row",)])

    def close(self):
        self.clock.advance(self.close_cost)

    def label(self):
        return "FakeOp"


class _FakeResult:
    def __init__(self, elapsed=0.0):
        self.rows = []
        self.elapsed = elapsed

    def __len__(self):
        return 0


class TestProfileFixes:
    def test_close_time_is_accumulated(self):
        # Teardown cost (e.g. ReqSync draining pending calls on close)
        # must show up in cum(s) instead of vanishing.
        clock = VirtualClock()
        wrapped, stats = profile_plan(_FakeOp(clock, close_cost=0.25), clock=clock)
        wrapped.open()
        wrapped.next()
        wrapped.close()
        (stat,) = stats
        assert stat.closes == 1
        assert stat.seconds == pytest.approx(0.25)

    def test_all_phases_counted(self):
        clock = VirtualClock()
        wrapped, stats = profile_plan(
            _FakeOp(clock, open_cost=0.1, next_cost=0.01, close_cost=0.2, rows=3),
            clock=clock,
        )
        wrapped.open()
        while wrapped.next() is not None:
            pass
        wrapped.close()
        (stat,) = stats
        assert (stat.opens, stat.closes) == (1, 1)
        assert stat.rows == 3
        assert stat.pulls == 4  # 3 rows + exhausted call
        assert stat.seconds == pytest.approx(0.1 + 4 * 0.01 + 0.2)

    def test_hottest_raises_on_empty_stats(self):
        report = ProfileReport("Select 1", "sync", _FakeResult(), [], {})
        with pytest.raises(ValueError, match="no operator statistics"):
            report.hottest()

    def test_untraced_report_has_empty_request_views(self):
        report = ProfileReport("Select 1", "sync", _FakeResult(), [], {})
        assert report.requests() == []
        assert report.request_latencies() == {}
        assert report.overlap() == 0


class TestPrometheusExport:
    def test_counter_gauge_histogram_families(self):
        registry = MetricsRegistry()
        registry.inc("pump.registered", destination="AV")
        registry.inc("pump.registered", destination="Google")
        gauge = registry.gauge("pump.in_flight")
        gauge.set(3)
        gauge.set(1)
        registry.histogram(
            "request.service_seconds", buckets=[0.01, 0.1], destination="AV"
        ).observe(0.05)
        text = registry.to_prometheus()
        lines = text.splitlines()
        assert "# TYPE pump_registered counter" in lines
        assert lines.count("# TYPE pump_registered counter") == 1
        assert 'pump_registered{destination="AV"} 1' in lines
        assert 'pump_registered{destination="Google"} 1' in lines
        # Gauges carry a _max companion for the high-water mark.
        assert "pump_in_flight 1" in lines
        assert "pump_in_flight_max 3" in lines
        # Histograms: cumulative buckets, +Inf == _count, plus _sum.
        assert (
            'request_service_seconds_bucket{destination="AV",le="0.01"} 0'
            in lines
        )
        assert (
            'request_service_seconds_bucket{destination="AV",le="0.1"} 1'
            in lines
        )
        assert (
            'request_service_seconds_bucket{destination="AV",le="+Inf"} 1'
            in lines
        )
        assert 'request_service_seconds_sum{destination="AV"} 0.05' in lines
        assert 'request_service_seconds_count{destination="AV"} 1' in lines
        assert text.endswith("\n")

    def test_name_and_label_sanitization(self):
        registry = MetricsRegistry()
        registry.inc("serve.slo.met", tenant='ac"me\n2')
        text = registry.to_prometheus()
        assert 'serve_slo_met{tenant="ac\\"me\\n2"} 1' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_deterministic_output(self):
        def build():
            registry = MetricsRegistry()
            registry.inc("b.counter")
            registry.inc("a.counter", destination="Z")
            registry.inc("a.counter", destination="A")
            registry.gauge("g").set(2)
            return registry.to_prometheus()

        assert build() == build()

    def test_named_accessors(self):
        registry = MetricsRegistry()
        registry.inc("serve.slo.met", tenant="gold")
        registry.inc("serve.slo.met", tenant="silver")
        registry.gauge("serve.slo.burn", tenant="gold").set(0.5)
        registry.observe("request.service_seconds", 0.01, destination="AV")
        assert {
            c.labels["tenant"] for c in registry.counters_named("serve.slo.met")
        } == {"gold", "silver"}
        assert len(registry.gauges_named("serve.slo.burn")) == 1
        assert (
            registry.histograms_named("request.service_seconds")[0]
            .labels["destination"]
            == "AV"
        )
        assert registry.counters_named("nothing") == []


class TestWaterfallDropped:
    def test_header_flags_incomplete_ring(self):
        events = _synthetic_trace().events()
        complete = render_waterfall(events)
        assert "INCOMPLETE" not in complete
        partial = render_waterfall(events, dropped=5)
        header = partial.splitlines()[0]
        assert "INCOMPLETE: ring dropped 5 event(s)" in header
