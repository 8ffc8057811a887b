"""Single-flight coalescing: N identical in-flight calls, one network issue.

A completed-results cache cannot dedup *concurrent* identical calls —
by the time the second query asks, the first answer is not cached yet.
``RequestPump(single_flight=True)`` closes that window: registrations
sharing a call key while a flight is live attach to the anchor's task
and settle off its outcome.  The trace is the ground truth here: the
stress tests assert **exactly one ``call.issue``** event no matter how
many registrants (and ``cache.coalesce`` for every follower), including
the leader-cancelled and leader-timeout paths the issue calls out.
"""

import threading
import time

import pytest

from repro.asynciter.pump import PumpLimits, RequestPump
from repro.asynciter.resilience import ResiliencePolicy, RetryPolicy
from repro.obs.trace import (
    CACHE_COALESCE,
    CALL_CANCEL,
    CALL_COMPLETE,
    CALL_ISSUE,
    Tracer,
)
from repro.util.errors import RequestTimeoutError, TransientWebError
from repro.vtables.base import ExternalCall
from repro.wsq import WsqEngine


def gated_call(release, key="k", destination="AV", rows=None, error=None):
    """A call that blocks (cooperatively) until *release* is set.

    Keeps the flight open while followers register, with no reliance on
    timing: registration is synchronous, so "register N, then release"
    deterministically coalesces all N.
    """
    rows = rows if rows is not None else [{"count": 1}]

    def run(attempt=0):
        while not release.is_set():
            yield 0.002
        if error is not None:
            raise error
        return rows

    return ExternalCall(key, destination, run)


class Collector:
    """Thread-safe ``on_complete`` sink; ``done`` fires at *expected*."""

    def __init__(self, expected):
        self.expected = expected
        self.results = {}
        self.lock = threading.Lock()
        self.done = threading.Event()

    def __call__(self, call_id, rows, error):
        with self.lock:
            self.results[call_id] = (rows, error)
            if len(self.results) >= self.expected:
                self.done.set()


def events_named(tracer, name):
    return [e for e in tracer.events() if e.name == name]


@pytest.fixture()
def pump():
    p = RequestPump(
        limits=PumpLimits(max_total=1),  # the issue's stress shape
        tracer=Tracer(),
        single_flight=True,
    )
    yield p
    p.shutdown()


class TestSingleFlightStress:
    def test_n_queries_one_issue(self, pump):
        """8 registrants from 8 distinct queries → exactly one call.issue."""
        n = 8
        release = threading.Event()
        collector = Collector(n)
        ids = [
            pump.register(
                [gated_call(release)], collector, query_id="q{}".format(i)
            )[0]
            for i in range(n)
        ]
        release.set()
        assert pump.wait(collector.done.is_set, 5)
        pump.quiesce()

        issues = events_named(pump.tracer, CALL_ISSUE)
        assert len(issues) == 1
        assert issues[0].call_id == ids[0]  # the anchor issued
        coalesces = events_named(pump.tracer, CACHE_COALESCE)
        assert len(coalesces) == n - 1
        assert {e.call_id for e in coalesces} == set(ids[1:])
        assert all(e.args["anchor"] == ids[0] for e in coalesces)
        # Every member (anchor included) got the same rows.
        assert set(collector.results) == set(ids)
        assert all(
            rows == [{"count": 1}] and error is None
            for rows, error in collector.results.values()
        )
        snap = pump.stats.snapshot()
        assert snap["registered"] == n
        assert snap["completed"] == n
        assert snap["coalesced"] == n - 1
        assert snap["queued"] == 0
        assert pump.metrics.counter_value("pump.coalesced") == n - 1

    def test_register_coalesces_within_one_burst(self, pump):
        """One burst of identical calls coalesces within the burst."""
        n = 6
        release = threading.Event()
        collector = Collector(n)
        ids = pump.register(
            [gated_call(release) for _ in range(n)], collector, query_id="q"
        )
        release.set()
        assert pump.wait(collector.done.is_set, 5)
        pump.quiesce()
        assert len(ids) == n
        assert len(events_named(pump.tracer, CALL_ISSUE)) == 1
        assert len(events_named(pump.tracer, CACHE_COALESCE)) == n - 1
        assert len(events_named(pump.tracer, CALL_COMPLETE)) == n

    def test_distinct_keys_do_not_coalesce(self, pump):
        release = threading.Event()
        collector = Collector(4)
        rows_a, rows_b = [{"count": 1}], [{"count": 2}]
        ids_a = [
            pump.register([gated_call(release, key="a", rows=rows_a)], collector)[0]
            for _ in range(2)
        ]
        ids_b = [
            pump.register([gated_call(release, key="b", rows=rows_b)], collector)[0]
            for _ in range(2)
        ]
        release.set()
        assert pump.wait(collector.done.is_set, 5)
        pump.quiesce()
        assert len(events_named(pump.tracer, CALL_ISSUE)) == 2
        assert len(events_named(pump.tracer, CACHE_COALESCE)) == 2
        # No cross-delivery between flights.
        for call_id in ids_a:
            assert collector.results[call_id] == (rows_a, None)
        for call_id in ids_b:
            assert collector.results[call_id] == (rows_b, None)

    def test_flight_is_not_a_result_cache(self, pump):
        """A registration *after* the flight settles issues a new call."""
        release = threading.Event()
        release.set()
        first = Collector(1)
        pump.register([gated_call(release)], first)
        assert pump.wait(first.done.is_set, 5)
        pump.quiesce()
        second = Collector(1)
        pump.register([gated_call(release)], second)
        assert pump.wait(second.done.is_set, 5)
        pump.quiesce()
        assert len(events_named(pump.tracer, CALL_ISSUE)) == 2
        assert len(events_named(pump.tracer, CACHE_COALESCE)) == 0

    def test_failure_fans_out_to_all_members(self, pump):
        n = 4
        release = threading.Event()
        collector = Collector(n)
        boom = TransientWebError("engine down")
        for _ in range(n):
            pump.register([gated_call(release, error=boom)], collector)
        release.set()
        assert pump.wait(collector.done.is_set, 5)
        pump.quiesce()
        assert len(events_named(pump.tracer, CALL_ISSUE)) == 1
        assert all(
            rows is None and error is boom
            for rows, error in collector.results.values()
        )
        assert pump.stats.snapshot()["failed"] == n


class TestCancellationPaths:
    def test_leader_cancelled_followers_survive(self, pump):
        """Cancelling the anchor detaches it; followers share its task.

        Still exactly one ``call.issue`` — the network task is *not*
        restarted for the survivors.
        """
        release = threading.Event()
        follower = Collector(2)
        leader_seen = Collector(1)
        (leader_id,) = pump.register([gated_call(release)], leader_seen, query_id="q0")
        follower_ids = [
            pump.register([gated_call(release)], follower, query_id="q{}".format(i))[0]
            for i in (1, 2)
        ]
        pump.cancel(leader_id)
        release.set()
        assert pump.wait(follower.done.is_set, 5)
        pump.quiesce()

        assert len(events_named(pump.tracer, CALL_ISSUE)) == 1
        cancels = events_named(pump.tracer, CALL_CANCEL)
        assert [e.call_id for e in cancels] == [leader_id]
        assert not leader_seen.results  # detached: its callback never ran
        for call_id in follower_ids:
            assert follower.results[call_id] == ([{"count": 1}], None)
        snap = pump.stats.snapshot()
        assert snap["cancelled"] == 1
        assert snap["completed"] == 2
        assert snap["queued"] == 0

    def test_all_members_cancelled_never_issues(self, pump):
        """A fully-abandoned flight is torn down before it reaches the wire.

        The sole concurrency slot is pinned by an unrelated blocker, so
        the anchor is deterministically still queued when the members
        cancel; no ``call.issue`` may appear for it afterwards.
        """
        blocker_release = threading.Event()
        blocker_done = Collector(1)
        pump.register(
            [gated_call(blocker_release, key="blocker")], blocker_done
        )
        # The blocker demonstrably *holds* the slot: registration issued it.
        assert events_named(pump.tracer, CALL_ISSUE)
        release = threading.Event()
        abandoned = Collector(3)
        ids = [
            pump.register([gated_call(release, key="doomed")], abandoned)[0]
            for _ in range(3)
        ]
        for call_id in ids:
            pump.cancel(call_id)
        # Nobody drives, so the last cancel abandoned the flight on this
        # thread while the blocker still pins the slot; now let it finish.
        blocker_release.set()
        release.set()
        assert pump.wait(blocker_done.done.is_set, 5)
        pump.quiesce()

        issue_ids = {e.call_id for e in events_named(pump.tracer, CALL_ISSUE)}
        assert issue_ids.isdisjoint(ids)  # the doomed flight never issued
        assert pump.stats.snapshot()["cancelled"] == 3
        assert not abandoned.results
        # The key is free again: a fresh registration starts a new flight.
        revived = Collector(1)
        (new_id,) = pump.register([gated_call(release, key="doomed")], revived)
        assert pump.wait(revived.done.is_set, 5)
        pump.quiesce()
        assert new_id in {
            e.call_id for e in events_named(pump.tracer, CALL_ISSUE)
        }

    def test_leader_timeout_fans_out_to_all_members(self):
        """Per-call timeout on the anchor delivers the error to everyone."""
        pump = RequestPump(
            limits=PumpLimits(max_total=1),
            tracer=Tracer(),
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=1), call_timeout=0.05
            ),
            single_flight=True,
        )
        try:
            n = 3
            never = threading.Event()  # the call would block forever
            collector = Collector(n)
            for i in range(n):
                pump.register([gated_call(never)], collector, query_id=i)
            assert pump.wait(collector.done.is_set, 5)
            pump.quiesce()
            assert len(events_named(pump.tracer, CALL_ISSUE)) == 1
            assert len(events_named(pump.tracer, CACHE_COALESCE)) == n - 1
            assert all(
                isinstance(error, RequestTimeoutError)
                for _rows, error in collector.results.values()
            )
            assert pump.stats.snapshot()["failed"] == n
        finally:
            pump.shutdown()


class TestOptInBoundaries:
    def test_single_flight_off_issues_per_registration(self):
        """The seed behaviour survives as the opt-out (and the default)."""
        pump = RequestPump(tracer=Tracer(), single_flight=False)
        try:
            n = 4
            release = threading.Event()
            collector = Collector(n)
            for _ in range(n):
                pump.register([gated_call(release)], collector)
            release.set()
            assert pump.wait(collector.done.is_set, 5)
            pump.quiesce()
            assert len(events_named(pump.tracer, CALL_ISSUE)) == n
            assert len(events_named(pump.tracer, CACHE_COALESCE)) == 0
        finally:
            pump.shutdown()

    def test_keyless_calls_never_coalesce(self, pump):
        release = threading.Event()
        collector = Collector(3)
        for _ in range(3):
            pump.register([gated_call(release, key=None)], collector)
        release.set()
        assert pump.wait(collector.done.is_set, 5)
        pump.quiesce()
        assert len(events_named(pump.tracer, CALL_ISSUE)) == 3

    def test_engine_dedicated_pumps_opt_in(self, web, paper_db):
        """Every engine handed no pump builds its own coalescing one,
        whatever else it was given; a pump passed in is used as built."""
        plain = WsqEngine(database=paper_db, web=web)
        other = WsqEngine(database=paper_db, web=web)
        resilient = WsqEngine(
            database=paper_db, web=web, resilience=ResiliencePolicy()
        )
        pumps = [plain.pump, other.pump, resilient.pump]
        assert len({id(pump) for pump in pumps}) == 3
        assert all(pump.single_flight for pump in pumps)
        assert resilient.pump.resilience is not None
        assert plain.pump.resilience is None
        given = RequestPump(single_flight=False)
        engine_off = WsqEngine(database=paper_db, web=web, pump=given)
        assert engine_off.pump is given
        assert engine_off.pump.single_flight is False


class TestConcurrentQueryStress:
    def test_many_threads_same_key_under_limit_one(self):
        """Thread-per-query hammering one key: issues ≪ registrations.

        Unlike the deterministic gated tests above, this drives real
        timing races (register vs settle vs re-register).  The invariant
        is not "one issue total" — flights legitimately close and reopen
        — but every settled call must be accounted, and coalescing must
        have collapsed the bulk of the traffic.
        """
        pump = RequestPump(
            limits=PumpLimits(max_total=1), tracer=Tracer(), single_flight=True
        )
        try:
            threads, per_thread = 8, 5
            total = threads * per_thread
            collector = Collector(total)
            barrier = threading.Barrier(threads)

            def query(i):
                barrier.wait()
                for _ in range(per_thread):
                    call = ExternalCall("hot-key", "AV", _slow_rows)
                    pump.register([call], collector, query_id="q{}".format(i))
                    time.sleep(0.001)

            workers = [
                threading.Thread(target=query, args=(i,)) for i in range(threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            assert pump.wait(collector.done.is_set, 10)
            pump.quiesce(timeout=5)

            issues = len(events_named(pump.tracer, CALL_ISSUE))
            coalesces = len(events_named(pump.tracer, CACHE_COALESCE))
            snap = pump.stats.snapshot()
            assert snap["registered"] == total
            assert snap["completed"] == total
            assert snap["coalesced"] == coalesces
            assert issues + coalesces == total  # every call issued or joined
            assert issues < total  # coalescing actually happened
            assert all(
                rows == [{"count": 1}] and error is None
                for rows, error in collector.results.values()
            )
        finally:
            pump.shutdown()


def _slow_rows(attempt=0):
    yield 0.01
    return [{"count": 1}]


class TestDetachDuringLeaderBackoff:
    """Regression: a member leaving while the leader sits in retry backoff
    must neither distort the retry accounting nor strand the flight
    (historically a lost cancel race could raise InvalidStateError inside
    the fan-out loop and leave later members unsettled forever)."""

    def _retry_pump(self):
        return RequestPump(
            limits=PumpLimits(max_total=1),
            tracer=Tracer(),
            resilience=ResiliencePolicy(
                retry=RetryPolicy(
                    max_attempts=3, base_backoff=0.3
                )
            ),
            single_flight=True,
        )

    def _flaky_call(self, attempts, release):
        """Fails transiently on attempt 1, then blocks until *release*."""

        def run(attempt=0):
            attempts.append(1)
            if len(attempts) == 1:
                raise TransientWebError("first attempt fails")
            while not release.is_set():
                yield 0.002
            return [{"count": 7}]

        return ExternalCall("k", "AV", run)

    def _wait_for_backoff(self, pump):
        """Attempt 1 failed at registration and the retry is scheduled."""
        assert pump.stats.snapshot()["retries"] == 1

    def test_follower_detach_mid_backoff(self):
        pump = self._retry_pump()
        try:
            attempts = []
            release = threading.Event()
            keeper = Collector(2)
            detacher = Collector(1)
            pump.register(
                [self._flaky_call(attempts, release)], keeper, query_id="q0"
            )
            (detach_id,) = pump.register(
                [self._flaky_call(attempts, release)], detacher, query_id="q1"
            )
            pump.register(
                [self._flaky_call(attempts, release)], keeper, query_id="q2"
            )
            self._wait_for_backoff(pump)
            pump.cancel(detach_id)  # detach while the leader sleeps
            release.set()
            assert pump.wait(keeper.done.is_set, 5)
            pump.quiesce()

            snap = pump.stats.snapshot()
            # The detach neither restarted the task nor re-counted retries.
            assert len(attempts) == 2
            assert snap["retries"] == 1
            assert snap["completed"] == 2
            assert snap["cancelled"] == 1
            assert snap["failed"] == 0
            assert snap["queued"] == 0
            assert not detacher.results
            assert all(
                rows == [{"count": 7}] and error is None
                for rows, error in keeper.results.values()
            )
            # The flight fully retired: no stranded call left in the table.
            assert pump._flights == {}
            assert pump._calls == {}
        finally:
            pump.shutdown()

    def test_anchor_detach_mid_backoff_keeps_attribution(self):
        """The anchor leaving mid-backoff hands the flight to survivors
        and later retry events still carry the anchor's query id (the
        timing record is captured at launch, not re-looked-up)."""
        pump = self._retry_pump()
        try:
            attempts = []
            release = threading.Event()
            survivor = Collector(1)
            leader_seen = Collector(1)
            (leader_id,) = pump.register(
                [self._flaky_call(attempts, release)], leader_seen, query_id="q0"
            )
            pump.register(
                [self._flaky_call(attempts, release)], survivor, query_id="q1"
            )
            self._wait_for_backoff(pump)
            pump.cancel(leader_id)  # the anchor abandons its own flight
            release.set()
            assert pump.wait(survivor.done.is_set, 5)
            pump.quiesce()

            assert len(attempts) == 2
            assert not leader_seen.results
            ((rows, error),) = survivor.results.values()
            assert rows == [{"count": 7}] and error is None
            from repro.obs.trace import CALL_RETRY

            retry_events = events_named(pump.tracer, CALL_RETRY)
            assert len(retry_events) == 1
            assert retry_events[0].query_id == "q0"  # not None
            assert pump._flights == {} and pump._calls == {}
        finally:
            pump.shutdown()

    def test_settle_tolerates_lost_cancel_race(self):
        """A cancel that loses to the fan-out must neither raise inside
        it nor count: a member's callback cancelling itself and every
        sibling lands after the fan-out took all of them out of the
        flight (they are still in the call table), so all three complete
        and every later member is still reached."""
        pump = RequestPump(tracer=Tracer(), single_flight=True)
        try:
            release = threading.Event()
            seen = Collector(3)
            ids = []

            def cancel_everyone(call_id, rows, error):
                for member in ids:
                    pump.cancel(member)  # too late for all three: no-ops
                seen(call_id, rows, error)

            for _ in range(3):
                ids.append(pump.register([gated_call(release)], cancel_everyone)[0])
            release.set()
            assert pump.wait(seen.done.is_set, 5)
            assert pump.quiesce()

            snap = pump.stats.snapshot()
            assert snap["completed"] == 3
            assert snap["cancelled"] == 0 and snap["failed"] == 0
            assert sorted(seen.results) == ids
            assert len(events_named(pump.tracer, CALL_COMPLETE)) == 3
            assert not events_named(pump.tracer, CALL_CANCEL)
            # Cancelling again, once everything has left the table, too.
            for member in ids:
                pump.cancel(member)
            assert pump.stats.snapshot()["cancelled"] == 0
            assert pump._flights == {} and pump._calls == {}
        finally:
            pump.shutdown()
