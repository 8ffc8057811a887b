"""The multi-tenant query service: admission, fairness, disconnects.

Covers the DESIGN.md §12 state machine end to end: submit-time
``queue_full`` sheds, dispatch-time ``deadline`` sheds, weighted fair
scheduling, per-tenant concurrency budgets, cancellation on disconnect
(including a disconnect *storm* with exact pump accounting afterwards),
and the serve.* trace/metric surfaces.
"""

import time

import pytest

from repro.datasets import load_all
from repro.obs import Observability
from repro.serve import (
    AdmissionRejected,
    Deadline,
    FairScheduler,
    QueryDeadlineExceeded,
    QueryService,
    TenantPolicy,
)
from repro.serve.admission import AdmissionController, SHED_QUEUE_FULL
from repro.storage import Database
from repro.web.latency import UniformLatency
from repro.wsq import WsqEngine

WSQ_SQL = (
    "Select Name, Count From States, WebCount "
    "Where Name = T1 Order By Count Desc"
)
LOCAL_SQL = "Select Name From States Order By Name"


def make_engine(latency=None, obs=False, **kwargs):
    return WsqEngine(
        database=load_all(Database()),
        latency=latency,
        obs=Observability.enabled() if obs else None,
        **kwargs,
    )


class TestFairScheduler:
    def test_weighted_shares(self):
        scheduler = FairScheduler()
        scheduler.set_weight("gold", 2.0)
        scheduler.set_weight("bronze", 1.0)
        for i in range(30):
            scheduler.push("gold", ("g", i))
            scheduler.push("bronze", ("b", i))
        order = [scheduler.pop()[0] for _ in range(30)]
        # Weight 2 drains twice as fast: of any prefix, ~2/3 is gold.
        assert order[:3].count("gold") >= 2
        assert order[:15].count("gold") == 10

    def test_idle_tenant_banks_no_credit(self):
        scheduler = FairScheduler()
        scheduler.set_weight("busy", 1.0)
        scheduler.set_weight("idle", 1.0)
        for i in range(20):
            scheduler.push("busy", i)
        for _ in range(20):
            scheduler.pop()
        # "idle" arrives after 20 dispatches it took no part in; it must
        # not get 20 consecutive dispatches to "catch up".
        for i in range(10):
            scheduler.push("busy", i)
            scheduler.push("idle", i)
        order = [scheduler.pop()[0] for _ in range(10)]
        assert order.count("idle") <= 6

    def test_eligibility_gate_skips_tenant(self):
        scheduler = FairScheduler()
        scheduler.push("a", 1)
        scheduler.push("b", 2)
        tenant, item = scheduler.pop(eligible=lambda t: t != "a")
        assert tenant == "b" and item == 2
        assert scheduler.depth("a") == 1

    def test_remove_withdraws_queued_item(self):
        scheduler = FairScheduler()
        scheduler.push("a", "x")
        assert scheduler.remove("a", "x")
        assert not scheduler.remove("a", "x")
        assert scheduler.pop() is None


class TestAdmissionController:
    def test_queue_full_sheds_at_submit(self):
        admission = AdmissionController(
            policies=[TenantPolicy("t", max_queued=2)]
        )
        admission.submit("t", object())
        admission.submit("t", object())
        with pytest.raises(AdmissionRejected) as info:
            admission.submit("t", object())
        assert info.value.reason == SHED_QUEUE_FULL
        assert info.value.tenant == "t"
        assert info.value.retry_after is not None
        assert info.value.retry_after > 0

    def test_service_wide_bound(self):
        admission = AdmissionController(max_queued=1)
        admission.submit("a", object())
        with pytest.raises(AdmissionRejected):
            admission.submit("b", object())

    def test_per_tenant_active_budget_gates_dispatch(self):
        admission = AdmissionController(
            policies=[TenantPolicy("t", max_active=1)]
        )

        class Ticket:
            deadline = None

        first, second = Ticket(), Ticket()
        admission.submit("t", first)
        admission.submit("t", second)
        tenant, ticket, verdict = admission.next_ready(timeout=0.1)
        assert ticket is first and verdict == "admitted"
        # Budget exhausted: the second ticket waits.
        assert admission.next_ready(timeout=0.05) is None
        admission.release("t")
        tenant, ticket, verdict = admission.next_ready(timeout=0.5)
        assert ticket is second and verdict == "admitted"
        admission.release("t")

    def test_reap_expired_sheds_dead_queued_tickets(self):
        admission = AdmissionController()

        class Ticket:
            def __init__(self, deadline):
                self.deadline = deadline

        live = Ticket(Deadline(60.0))
        dead = Ticket(Deadline(0.0))
        gone = Ticket(Deadline())
        gone.deadline.cancel("client left")
        time.sleep(0.001)
        for ticket in (live, dead, gone):
            admission.submit("t", ticket)
        reaped = {
            id(ticket): verdict
            for _tenant, ticket, verdict in admission.reap_expired()
        }
        assert reaped == {id(dead): "shed", id(gone): "cancelled"}
        # The live ticket kept its place and dispatches normally.
        tenant, ticket, verdict = admission.next_ready(timeout=0.5)
        assert ticket is live and verdict == "admitted"
        admission.release("t")

    def test_deadline_consumed_in_queue_sheds_at_dispatch(self):
        admission = AdmissionController()

        class Ticket:
            def __init__(self):
                self.deadline = Deadline(0.0)

        ticket = Ticket()
        time.sleep(0.001)
        admission.submit("t", ticket)
        tenant, out, verdict = admission.next_ready(timeout=0.5)
        assert out is ticket and verdict == "shed"
        exc = admission.shed_verdict(tenant, out)
        assert exc.reason == "deadline"
        assert exc.retry_after is not None


class TestServiceBasics:
    def test_execute_matches_direct_engine_run(self):
        engine = make_engine()
        expected = engine.execute(WSQ_SQL)
        with QueryService(engine, max_workers=2) as service:
            result = service.execute(WSQ_SQL, timeout=30.0)
            # sorted(): Order By Count Desc leaves tied counts in
            # arrival order, which varies under concurrency.
            assert sorted(result.rows) == sorted(expected.rows)

    def test_concurrent_sessions_share_one_engine(self):
        engine = make_engine()
        expected = engine.execute(WSQ_SQL)
        with QueryService(engine, max_workers=4) as service:
            sessions = [service.session("tenant-{}".format(i)) for i in range(4)]
            handles = [
                s.submit(WSQ_SQL, timeout=30.0) for s in sessions for _ in range(3)
            ]
            for handle in handles:
                rows = handle.result(timeout=30.0).rows
                assert sorted(rows) == sorted(expected.rows)
        stats = service.stats()
        total_completed = sum(
            t["completed"] for t in stats["admission"]["tenants"].values()
        )
        assert total_completed == 12

    def test_submit_time_shed_is_typed_and_fast(self):
        # obs=True gives the engine a dedicated metrics registry, so the
        # exact-count assertions below cannot see other tests' traffic.
        engine = make_engine(latency=UniformLatency(0.1, 0.2), obs=True)
        service = QueryService(
            engine,
            tenants=[TenantPolicy("t", max_queued=1, max_active=1)],
            max_workers=1,
        )
        try:
            running = service.submit(WSQ_SQL, tenant="t", timeout=30.0)
            time.sleep(0.2)  # let it dispatch so the queue is free
            queued = service.submit(WSQ_SQL, tenant="t", timeout=30.0)
            with pytest.raises(AdmissionRejected) as info:
                service.submit(WSQ_SQL, tenant="t", timeout=30.0)
            assert info.value.reason == "queue_full"
            assert info.value.retry_after > 0
            running.result(timeout=30.0)
            queued.result(timeout=30.0)
        finally:
            service.close()
        counters = engine.metrics_snapshot()["counters"]
        assert counters.get("serve.shed", 0) == 1
        assert counters.get("serve.shed{reason=queue_full}", 0) == 1

    def test_queue_wait_consuming_deadline_sheds_at_dispatch(self):
        engine = make_engine(latency=UniformLatency(0.2, 0.3))
        service = QueryService(engine, max_workers=1)
        try:
            blocker = service.submit(WSQ_SQL, timeout=30.0)
            # A 1ms deadline cannot survive sitting behind ~250ms of work.
            starved = service.submit(WSQ_SQL, timeout=0.001)
            with pytest.raises(AdmissionRejected) as info:
                starved.result(timeout=30.0)
            assert info.value.reason == "deadline"
            assert starved.status == "shed"
            blocker.result(timeout=30.0)
        finally:
            service.close()

    def test_deadline_expiry_mid_query_is_typed(self):
        engine = make_engine(latency=UniformLatency(0.2, 0.3))
        service = QueryService(engine, max_workers=2)
        try:
            handle = service.submit(WSQ_SQL, timeout=0.05)
            with pytest.raises(QueryDeadlineExceeded):
                handle.result(timeout=30.0)
            assert handle.status == "expired"
        finally:
            service.close()
        assert engine.pump.quiesce(timeout=5.0)
        assert engine.pump.stats.snapshot()["queued"] == 0

    def test_close_without_drain_sheds_backlog_typed(self):
        engine = make_engine(latency=UniformLatency(0.2, 0.3))
        service = QueryService(engine, max_workers=1)
        handles = [service.submit(WSQ_SQL, timeout=30.0) for _ in range(4)]
        service.close(drain=False)
        outcomes = set()
        for handle in handles:
            try:
                handle.result(timeout=30.0)
                outcomes.add("completed")
            except AdmissionRejected as exc:
                assert exc.reason == "shutdown"
                outcomes.add("shed")
        assert "shed" in outcomes  # the backlog did not run


class TestFairnessUnderContention:
    def test_weighted_tenant_gets_larger_share(self):
        engine = make_engine(latency=UniformLatency(0.3, 0.4))
        service = QueryService(
            engine,
            tenants=[
                TenantPolicy("gold", weight=3.0),
                TenantPolicy("bronze", weight=1.0),
            ],
            max_workers=1,  # single slot: scheduling order is the share
        )
        try:
            # A slow WSQ query pins the only worker while the backlog
            # builds, so dispatch order is pure fair-schedule, not FIFO.
            blocker = service.submit(WSQ_SQL, tenant="bronze", timeout=60.0)
            handles = []
            for i in range(8):
                for tenant in ("gold", "bronze"):
                    handles.append(
                        (tenant, service.submit(LOCAL_SQL, tenant=tenant))
                    )
            blocker.result(timeout=60.0)
            finish_order = []
            for tenant, handle in handles:
                handle.result(timeout=30.0)
                finish_order.append((tenant, handle.finished_at))
        finally:
            service.close()
        stats = service.stats()["admission"]["tenants"]
        assert stats["gold"]["completed"] == 8
        assert stats["bronze"]["completed"] == 9  # 8 + the blocker
        # Share check: weight 3 vs 1 means gold dominates the first half
        # of the contended dispatches, ~3:1.
        by_time = sorted(finish_order, key=lambda pair: pair[1])
        first_half = [tenant for tenant, _ in by_time[:8]]
        assert first_half.count("gold") >= 5


class TestDisconnects:
    def test_session_close_cancels_outstanding(self):
        engine = make_engine(latency=UniformLatency(0.2, 0.3))
        service = QueryService(engine, max_workers=2)
        try:
            session = service.session("t")
            handles = [session.submit(WSQ_SQL, timeout=30.0) for _ in range(4)]
            time.sleep(0.1)  # some running, some queued
            session.close()
            for handle in handles:
                with pytest.raises(Exception) as info:
                    handle.result(timeout=30.0)
                assert isinstance(
                    info.value, (QueryDeadlineExceeded, AdmissionRejected)
                )
        finally:
            service.close()

    def test_disconnect_storm_leaves_exact_pump_accounting(self):
        # No round trip can land before 0.3s, so the 0.15s storm below
        # is guaranteed to catch every query still in flight.
        engine = make_engine(
            latency=UniformLatency(0.3, 0.5), single_flight=True
        )
        service = QueryService(engine, max_workers=4)
        try:
            sessions = [
                service.session("tenant-{}".format(i)) for i in range(6)
            ]
            for session in sessions:
                for _ in range(3):
                    session.submit(WSQ_SQL, timeout=30.0)
            all_handles = []
            for session in sessions:
                all_handles.extend(session.outstanding())
            time.sleep(0.15)  # a mix of queued / running / in-flight
            for session in sessions:  # the storm
                session.close()
            for handle in all_handles:  # block until each settles
                assert handle.exception(timeout=30.0) is not None
        finally:
            service.close()
        # Exact accounting: every registered call settled, exactly once.
        assert engine.pump.quiesce(timeout=10.0)
        snapshot = engine.pump.stats.snapshot()
        settled = (
            snapshot["completed"] + snapshot["failed"] + snapshot["cancelled"]
        )
        assert settled == snapshot["registered"]
        assert snapshot["queued"] == 0
        assert snapshot["in_flight"] == 0
        # No coalesced flight left unsettled (white-box).
        assert engine.pump._flights == {}
        assert engine.pump._calls == {}


class TestServeObservability:
    def test_serve_events_are_schema_valid(self):
        from repro.obs.schema import validate_trace_events

        engine = make_engine(obs=True)
        service = QueryService(engine, max_workers=2)
        try:
            service.execute(WSQ_SQL, tenant="t", timeout=30.0)
            with pytest.raises(AdmissionRejected):
                bad = QueryService(
                    engine,
                    tenants=[TenantPolicy("t", max_queued=0)],
                    max_workers=1,
                    name="wsq-serve-2",
                )
                try:
                    bad.submit(WSQ_SQL, tenant="t")
                finally:
                    bad.close()
        finally:
            service.close()
        events = list(engine.obs.tracer.events())
        names = {event.name for event in events}
        assert "serve.submit" in names
        assert "serve.admit" in names
        assert "serve.finish" in names
        assert "serve.shed" in names
        assert validate_trace_events(events) == []

    def test_breaker_states_in_metrics_snapshot(self):
        from repro.asynciter.resilience import (
            CircuitBreakerConfig,
            ResiliencePolicy,
            RetryPolicy,
        )
        from repro.web.faults import FaultModel

        engine = make_engine(
            faults=FaultModel(seed=3, transient_rate=1.0),
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=2, base_backoff=0.0),
                breaker=CircuitBreakerConfig(failure_threshold=1),
            ),
        )
        with pytest.raises(Exception):
            engine.execute(WSQ_SQL)
        snapshot = engine.metrics_snapshot()
        assert "breakers" in snapshot
        assert snapshot["breakers"], "expected at least one breaker"
        for state in snapshot["breakers"].values():
            assert state["state"] in ("closed", "open", "half_open")
            assert "opened_at" in state
            assert "last_transition_at" in state
        tripped = [
            s for s in snapshot["breakers"].values() if s["state"] != "closed"
        ]
        assert tripped and all(
            s["opened_at"] is not None for s in tripped
        )


class TestSlo:
    def test_policy_slo_validation(self):
        with pytest.raises(ValueError):
            TenantPolicy("t", slo_seconds=0)
        with pytest.raises(ValueError):
            TenantPolicy("t", slo_seconds=1.0, slo_target=1.0)
        policy = TenantPolicy("t", slo_seconds=0.5, slo_target=0.9)
        assert "slo=0.5s@0.9" in repr(policy)

    def test_record_settlement_unit(self):
        from repro.obs import MetricsRegistry, Tracer
        from repro.serve.slo import (
            SLO_BURN,
            SLO_MET,
            SLO_VIOLATED,
            record_settlement,
        )

        metrics = MetricsRegistry()
        tracer = Tracer()
        policy = TenantPolicy("gold", slo_seconds=1.0, slo_target=0.9)
        # No SLO configured: nothing moves.
        assert record_settlement(
            metrics, tracer, TenantPolicy("free"), "free", "completed", 0.1,
            completed=True,
        ) is None
        assert metrics.counter_value(SLO_MET, tenant="free") == 0
        # Within objective: met.
        assert record_settlement(
            metrics, tracer, policy, "gold", "completed", 0.5, completed=True
        ) is True
        # Late completion and a shed both charge the budget.
        assert record_settlement(
            metrics, tracer, policy, "gold", "completed", 2.0, completed=True
        ) is False
        assert record_settlement(
            metrics, tracer, policy, "gold", "shed", 0.01, completed=False
        ) is False
        assert metrics.counter_value(SLO_MET, tenant="gold") == 1
        assert metrics.counter_value(SLO_VIOLATED, tenant="gold") == 2
        # burn = (2/3) / (1 - 0.9)
        burn = metrics.gauge(SLO_BURN, tenant="gold").value
        assert burn == pytest.approx((2 / 3) / 0.1)
        violations = tracer.events("serve.slo_violation")
        assert len(violations) == 2
        assert violations[0].args["tenant"] == "gold"
        assert violations[0].args["objective_s"] == 1.0

    def test_service_tracks_slo_end_to_end(self):
        from repro.serve import render_slo_report
        from repro.serve.slo import slo_counters_view

        engine = make_engine(obs=True)
        tenants = [
            TenantPolicy("gold", slo_seconds=30.0, slo_target=0.9),
            TenantPolicy("tight", slo_seconds=1e-9, slo_target=0.99),
            TenantPolicy("free"),  # no SLO: excluded from the report
        ]
        with QueryService(engine, tenants=tenants, max_workers=2) as service:
            for tenant in ("gold", "tight", "free"):
                service.submit(LOCAL_SQL, tenant=tenant).result(timeout=30.0)
            report = service.slo_report()
            stats = service.stats()

        assert set(report) == {"gold", "tight"}
        assert report["gold"]["met"] == 1
        assert report["gold"]["violated"] == 0
        assert report["gold"]["met_fraction"] == 1.0
        # Every real query exceeds a 1ns objective: pure budget burn.
        assert report["tight"]["violated"] == 1
        assert report["tight"]["burn"] == pytest.approx(100.0)
        assert stats["slo"] == report

        text = render_slo_report(report)
        assert "gold" in text and "burn 100.00x" in text
        assert "met 1/1 (100.0%)" in text
        # The policy-free counters view reconstructs the same picture.
        view = slo_counters_view(engine.metrics)
        assert view["gold"]["met"] == 1
        assert view["tight"]["burn"] == pytest.approx(100.0)
        assert "free" not in view

    def test_client_cancel_excluded_from_slo(self):
        engine = make_engine(latency=UniformLatency(0.2, 0.3), obs=True)
        tenants = [TenantPolicy("gold", slo_seconds=30.0, slo_target=0.9)]
        service = QueryService(engine, tenants=tenants, max_workers=1)
        try:
            handle = service.submit(WSQ_SQL, tenant="gold")
            handle.cancel("client left")
            with pytest.raises(Exception):
                handle.result(timeout=30.0)
        finally:
            service.close()
        # The caller walked away: neither side of the ratio moves.
        from repro.serve.slo import SLO_MET, SLO_VIOLATED

        assert engine.metrics.counter_value(SLO_MET, tenant="gold") == 0
        assert engine.metrics.counter_value(SLO_VIOLATED, tenant="gold") == 0

    def test_render_empty_report(self):
        from repro.serve import render_slo_report

        assert "no tenants" in render_slo_report({})
