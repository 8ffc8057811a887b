"""The multi-tenant query service: admission, fairness, disconnects.

Covers the DESIGN.md §12 state machine end to end: submit-time
``queue_full`` sheds, dispatch-time ``deadline`` sheds, weighted fair
scheduling, cancellation on disconnect (``QueryHandle.cancel`` on every
outstanding handle, including a disconnect *storm* with exact pump
accounting afterwards), and the serve.* trace/metric surfaces.

The service starts no thread: a query runs on a thread that waits for a
result, so a test that needs queries running while it acts starts client
threads that wait (``waiting_client``) and gates on what they started.
"""

import threading
import time

import pytest

from repro.asynciter.pump import RequestPump
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
from repro.web.latency import FixedLatency, UniformLatency
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


def waiting_client(*handles):
    """A started client thread that waits for each handle in turn, and so
    runs what the service hands it meanwhile."""
    thread = threading.Thread(
        target=lambda: [handle.exception(timeout=30.0) for handle in handles]
    )
    thread.start()
    return thread


def join(*clients):
    for client in clients:
        client.join(timeout=30.0)
        assert not client.is_alive()


def wait_until(condition, message="the condition never held", seconds=5.0):
    gate = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < gate, message
        time.sleep(0.001)


class Ticket:
    """An admission ticket shaped like the service's handles: a tenant, a
    deadline and ``done()``, which the controller's report settles."""

    tenant = "t"
    verdict = None

    def __init__(self, deadline=None):
        self.deadline = deadline or Deadline()

    def done(self):
        return self.verdict is not None


def controller(**kwargs):
    def settle(tenant, ticket, verdict):
        ticket.verdict = verdict

    return AdmissionController(settle=settle, **kwargs)


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

    def test_touching_the_queue_sheds_dead_queued_tickets(self):
        admission = controller()
        live = Ticket(Deadline(60.0))
        dead = Ticket(Deadline(0.0))  # expired when built: now >= expires_at
        gone = Ticket(Deadline())
        gone.deadline.cancel("client left")
        for ticket in (live, dead, gone):
            admission.submit("t", ticket)
        # No sweep: the submits and the next pick settle what died queued
        # before they hand out a ticket.
        assert admission.next_ticket(live) == ("t", live)
        assert (dead.verdict, gone.verdict) == ("deadline", "cancelled")
        # The abandoned ticket counts once, as cancelled (as withdraw()
        # and the serve.cancelled counter count it), not also as shed.
        counts = admission.stats()["tenants"]["t"]
        assert (counts["shed"], counts["cancelled"]) == (1, 1)
        # The live ticket kept its place and was admitted.
        assert live.verdict is None and counts["admitted"] == 1
        admission.release("t")

    def test_ticket_abandoned_in_queue_counts_once_at_dispatch(self):
        admission = controller()
        ticket = Ticket()
        ticket.deadline.cancel("client left")
        admission.submit("t", ticket)
        assert admission.next_ticket(ticket) is None
        assert ticket.verdict == "cancelled"
        counts = admission.stats()["tenants"]["t"]
        assert (counts["shed"], counts["cancelled"]) == (0, 1)

    def test_deadline_consumed_in_queue_sheds_at_dispatch(self):
        admission = controller()
        ticket = Ticket(Deadline(0.0))
        admission.submit("t", ticket)
        assert admission.next_ticket(ticket) is None
        assert ticket.verdict == "deadline"
        exc = admission.shed_verdict("t", ticket)
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
            handles = [
                service.submit(WSQ_SQL, tenant="tenant-{}".format(i), timeout=30.0)
                for i in range(4)
                for _ in range(3)
            ]
            clients = [waiting_client(*handles[i::4]) for i in range(4)]
            for handle in handles:
                rows = handle.result(timeout=30.0).rows
                assert sorted(rows) == sorted(expected.rows)
            join(*clients)
        stats = service.stats()
        total_completed = sum(
            t["completed"] for t in stats["admission"]["tenants"].values()
        )
        assert total_completed == 12

    def test_submit_time_shed_is_typed_and_fast(self):
        # The engine's own pump carries its registry, so the exact-count
        # assertions below cannot see other tests' traffic.
        engine = make_engine(latency=UniformLatency(0.1, 0.2), obs=True)
        service = QueryService(
            engine,
            tenants=[TenantPolicy("t", max_queued=1)],
            max_workers=1,
        )
        try:
            running = service.submit(WSQ_SQL, tenant="t", timeout=30.0)
            client = waiting_client(running)
            # Dispatched, so the queue is free.
            wait_until(lambda: running.status == "running")
            queued = service.submit(WSQ_SQL, tenant="t", timeout=30.0)
            with pytest.raises(AdmissionRejected) as info:
                service.submit(WSQ_SQL, tenant="t", timeout=30.0)
            assert info.value.reason == "queue_full"
            assert info.value.retry_after > 0
            running.result(timeout=30.0)
            queued.result(timeout=30.0)
            join(client)
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

    def test_a_dead_ticket_is_shed_while_another_holds_the_slot(self):
        """The only slot is busy for at least 0.3 s; a queued ticket with
        a 0.05 s budget is shed at its deadline by the thread that waits
        for it, with no sweep and without waiting for the slot."""
        engine = make_engine(latency=FixedLatency(0.3), cache=False)
        service = QueryService(engine, max_workers=1)
        try:
            blocker = service.submit(WSQ_SQL, timeout=30.0)
            client = waiting_client(blocker)
            wait_until(lambda: blocker.status == "running")
            starved = service.submit(LOCAL_SQL, timeout=0.05)
            with pytest.raises(AdmissionRejected) as info:
                starved.result(timeout=30.0)
            assert info.value.reason == "deadline"
            assert starved.status == "shed"
            join(client)
        finally:
            service.close()
        assert blocker.status == "completed"
        assert starved.finished_at < blocker.finished_at
        late = starved.finished_at - (starved.submitted_at + 0.05)
        assert late <= blocker.finished_at - blocker.dispatched_at

    def test_close_runs_an_unwaited_query_on_the_closing_thread(self, monkeypatch):
        engine = make_engine(cache=False)
        expected = engine.execute(LOCAL_SQL).rows
        ran_on = []
        execute = engine.execute

        def recording(*args, **kwargs):
            ran_on.append(threading.get_ident())
            return execute(*args, **kwargs)

        monkeypatch.setattr(engine, "execute", recording)
        service = QueryService(engine)
        handle = service.submit(LOCAL_SQL, timeout=30.0)
        assert handle.status == "queued" and not handle.done()
        service.close()  # drain=True
        assert ran_on == [threading.get_ident()]
        assert handle.done() and handle.status == "completed"
        assert handle.result().rows == expected

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


class TestSharedFlightAcrossTenants:
    def test_a_tenants_timeout_never_fails_another_tenants_calls(self):
        """Two tenants run one WSQ query, and the one with the tight
        timeout registers first, so the other's calls join its requests.
        The tight query expires alone: the other's rows are a solo run's,
        not rows that ``on_error="drop"`` degraded because someone else's
        deadline ran out."""
        engine = make_engine(latency=FixedLatency(0.3), on_error="drop", cache=False)
        pump = engine.pump
        solo = engine.execute(WSQ_SQL).rows
        per_query = pump.stats.snapshot()["registered"]
        service = QueryService(
            engine, tenants=[TenantPolicy("tight"), TenantPolicy("free")]
        )
        try:
            tight = service.submit(WSQ_SQL, "tight", timeout=0.1)
            clients = [waiting_client(tight)]
            wait_until(
                lambda: pump.stats.snapshot()["registered"] >= 2 * per_query,
                "the tight query never registered",
            )
            free = service.submit(WSQ_SQL, "free")
            clients.append(waiting_client(free))
            with pytest.raises(QueryDeadlineExceeded):
                tight.result(timeout=30.0)
            rows = free.result(timeout=30.0).rows
            join(*clients)
        finally:
            service.close()
            pump.shutdown()
        assert pump.stats.snapshot()["coalesced"] == per_query
        assert sorted(rows) == sorted(solo)


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
            # Nothing runs until this thread waits, and then one query at
            # a time, so with the backlog built dispatch order is pure
            # fair-schedule, not FIFO.
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
            handles = [
                service.submit(WSQ_SQL, tenant="t", timeout=30.0)
                for _ in range(4)
            ]
            clients = [waiting_client(handle) for handle in handles[:2]]
            # Some running, some queued.
            wait_until(lambda: sum(h.status == "running" for h in handles) == 2)
            for handle in handles:  # the client disconnects
                handle.cancel()
            for handle in handles:
                with pytest.raises(Exception) as info:
                    handle.result(timeout=30.0)
                assert isinstance(
                    info.value, (QueryDeadlineExceeded, AdmissionRejected)
                )
            join(*clients)
        finally:
            service.close()

    def test_disconnect_storm_leaves_exact_pump_accounting(self):
        # No round trip can land before 0.3s, so a storm as soon as the
        # first calls are registered catches every query still in flight.
        engine = make_engine(
            latency=UniformLatency(0.3, 0.5),
            pump=RequestPump(name="storm-pump", single_flight=True),
        )
        service = QueryService(engine, max_workers=4)
        try:
            all_handles = [
                service.submit(WSQ_SQL, tenant="tenant-{}".format(i), timeout=30.0)
                for i in range(6)
                for _ in range(3)
            ]
            # One client per tenant, four slots: a mix of queued / running
            # / in-flight.
            clients = [waiting_client(*all_handles[i : i + 3]) for i in range(0, 18, 3)]
            wait_until(
                lambda: sum(h.status == "running" for h in all_handles) == 4
                and engine.pump.stats.snapshot()["registered"] > 0
            )
            for handle in all_handles:  # the storm
                handle.cancel()
            for handle in all_handles:  # block until each settles
                assert handle.exception(timeout=30.0) is not None
            join(*clients)
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


class TestNoServeThread:
    def test_the_service_starts_no_thread(self):
        """Queries run on the threads that wait for them: the process has
        as many threads after submit, execute and close as before, and a
        submit on a closed service starts none before it is refused."""
        engine = make_engine(latency=UniformLatency(0.002, 0.005), cache=False)
        before = threading.active_count()
        service = QueryService(engine, max_workers=8)
        handle = service.submit(LOCAL_SQL, tenant="t")
        assert threading.active_count() == before
        rows = service.execute(WSQ_SQL, tenant="t", timeout=30.0).rows
        assert threading.active_count() == before
        service.close()
        assert rows and handle.done() and threading.active_count() == before
        closed = QueryService(engine)
        closed.close()
        with pytest.raises(AdmissionRejected) as info:
            closed.submit(LOCAL_SQL)
        assert info.value.reason == "shutdown"
        assert threading.active_count() == before
        assert engine.pump.quiesce(timeout=5.0)


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
