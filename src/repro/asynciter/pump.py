"""ReqPump: the global asynchronous request module (paper Section 4.1).

One daemon thread runs an asyncio event loop; every registered external
call becomes a task on that loop.  This is deliberately *not* parallel
query processing: like the event-driven web servers the paper points to,
a single process multiplexes many in-flight network waits.

Resource control (the paper's "monitoring and controlling resource usage")
is two layers of counting semaphores: one global, one per destination.
"When a call is registered with ReqPump but cannot be executed because of
resource limits, the call is placed on a queue" — the semaphore wait queue
plays that role, and the statistics expose how much queueing happened.

Resilience (a deliberate departure from the paper, which assumed reliable
engines): with a :class:`~repro.asynciter.resilience.ResiliencePolicy`
attached, every call runs under a per-attempt ``asyncio.wait_for``
timeout, transient failures are retried with deterministic backoff, and a
per-destination :class:`~repro.asynciter.resilience.CircuitBreaker` fails
fast while a destination is down.

Observability: the pump's statistics (:class:`_PumpStats`) are a view
over a :class:`~repro.obs.metrics.MetricsRegistry` — counters and the
in-flight gauge live there, and every settled call feeds per-destination
queue-wait / service / end-to-end latency histograms (p50/p95/p99 via
``pump.metrics``).  With a :class:`~repro.obs.trace.Tracer` attached the
pump additionally emits the request-lifecycle event chain
``register → enqueue → issue → (retry|timeout|breaker_reject)* →
complete|cancel|fail``, correlated by call id and the registrant's
query id.  Without a tracer each would-be event costs one ``None``
check.
"""

import asyncio
import concurrent.futures
import selectors
import threading
import time

from repro.asynciter.resilience import CircuitBreaker
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    CACHE_COALESCE,
    CALL_BREAKER_REJECT,
    CALL_CANCEL,
    CALL_COMPLETE,
    CALL_ENQUEUE,
    CALL_FAIL,
    CALL_ISSUE,
    CALL_REGISTER,
    CALL_RETRY,
    CALL_TIMEOUT,
)
from repro.util.errors import (
    BreakerOpenError,
    ExecutionError,
    QueryDeadlineExceeded,
    RequestTimeoutError,
)
from repro.util.timing import resolve_clock


class PumpLimits:
    """Concurrency limits: total in-flight calls and per-destination caps.

    ``None`` means unbounded.  ``per_destination`` maps a destination name
    to its cap; ``destination_default`` applies to unlisted destinations.
    """

    def __init__(self, max_total=None, per_destination=None, destination_default=None):
        self.max_total = max_total
        self.per_destination = dict(per_destination or {})
        self.destination_default = destination_default

    def limit_for(self, destination):
        return self.per_destination.get(destination, self.destination_default)


_DEST_COUNTER_KEYS = (
    "registered",
    "completed",
    "failed",
    "cancelled",
    "retries",
    "timeouts",
    "breaker_open_rejections",
    "coalesced",
    "deadline_expired",
)

#: Histogram kinds the pump observes per settled call.
_LATENCY_KINDS = ("queue_wait", "service", "e2e")


class _PumpStats:
    """Pump statistics, backed by a :class:`MetricsRegistry`.

    The public surface is unchanged from the counter-field era —
    ``snapshot()`` returns the same dict shape, ``bump`` increments one
    global and one per-destination counter — but the storage is the
    registry, so anything reading ``pump.metrics`` (exporters, the CLI's
    ``--metrics``, later subsystems) sees the same numbers with no
    double accounting.
    """

    def __init__(self, metrics=None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.lock = threading.Lock()  # guards the destination set
        self._destinations = set()

    # -- write side -----------------------------------------------------------

    def bump(self, destination, key, amount=1):
        with self.lock:
            self._destinations.add(destination)
        self.metrics.counter("pump." + key).inc(amount)
        self.metrics.counter("pump." + key, destination=destination).inc(amount)

    def enter_flight(self):
        """Returns the new in-flight depth (for max tracking/tracing)."""
        return self.metrics.gauge("pump.in_flight").inc()

    def exit_flight(self):
        self.metrics.gauge("pump.in_flight").dec()

    def observe_latency(self, kind, destination, seconds):
        self.metrics.observe(
            "request.{}_seconds".format(kind), seconds, destination=destination
        )

    # -- read side ------------------------------------------------------------

    def snapshot(self):
        counter = self.metrics.counter_value
        gauge = self.metrics.gauge("pump.in_flight")
        with self.lock:
            destinations = sorted(self._destinations)
        payload = {key: counter("pump." + key) for key in _DEST_COUNTER_KEYS}
        payload["in_flight"] = gauge.value
        payload["max_in_flight"] = gauge.max_value
        settled = (
            payload["completed"] + payload["failed"] + payload["cancelled"]
        )
        # Registered but neither executing nor settled: the paper's
        # "placed on a queue" calls awaiting a limit slot.
        payload["queued"] = max(
            0, payload["registered"] - settled - payload["in_flight"]
        )
        payload["per_destination"] = {
            destination: {
                key: counter("pump." + key, destination=destination)
                for key in _DEST_COUNTER_KEYS
            }
            for destination in destinations
        }
        return payload

    def latencies(self):
        """Per-destination latency summaries (p50/p95/p99, mean, count)."""
        with self.lock:
            destinations = sorted(self._destinations)
        table = {}
        for destination in destinations:
            summaries = {}
            for kind in _LATENCY_KINDS:
                histogram = self.metrics.histogram(
                    "request.{}_seconds".format(kind), destination=destination
                )
                if histogram.count:
                    summaries[kind] = histogram.summary()
            if summaries:
                table[destination] = summaries
        return table


class _CallTiming:
    """Registration/issue timestamps for one in-flight call.

    ``finished_at`` is stamped inside the concurrency slot, *before* the
    semaphore is released: the settlement callback runs later (on the
    future's done-callback), and using its wall-clock would overstate
    service time by the scheduling lag — enough to make the trace show
    ``limit + 1`` overlapping requests under a concurrency limit.
    """

    __slots__ = (
        "registered_at",
        "issued_at",
        "finished_at",
        "query_id",
        "attempts",
        "deadline",
    )

    def __init__(self, registered_at, query_id, deadline=None):
        self.registered_at = registered_at
        self.issued_at = None
        self.finished_at = None
        self.query_id = query_id
        self.attempts = 0
        self.deadline = deadline


class _Flight:
    """One *physical* in-flight call shared by several logical registrations.

    Single-flight coalescing (DESIGN.md §11): when two registrations carry
    the same call key while the first is still in flight — typically the
    same ``SearchExp`` issued by *different* queries, which per-query
    :class:`~repro.asynciter.context.AsyncContext` dedup cannot see — the
    pump runs one network call and fans its outcome out to every member.

    Every member (the anchor that launched the coroutine included) gets
    its own call id, its own :class:`_CallTiming`, and its own settlement
    future, so per-call accounting (registered/completed/cancelled,
    latency histograms, lifecycle trace) is indistinguishable from the
    uncoalesced case *except* that only the anchor's call id ever appears
    in a ``call.issue`` event.  Cancelling a member merely detaches it;
    the physical task is cancelled only when the last live member leaves.
    """

    __slots__ = ("key", "destination", "anchor_id", "members", "task_future", "settled")

    def __init__(self, key, destination, anchor_id):
        self.key = key
        self.destination = destination
        self.anchor_id = anchor_id
        self.members = {}  # call_id -> on_complete callback
        self.task_future = None  # the anchor coroutine's future
        self.settled = False


def _settle_member_future(future, outcome):
    """Settle a flight member's future, tolerating a lost cancel race.

    A member can be cancelled (client disconnect) in the window between
    :meth:`RequestPump._drain_flight` collecting the futures and the
    fan-out loop reaching this one; ``set_result`` on the
    already-cancelled future would raise ``InvalidStateError`` *inside
    the fan-out loop* and strand every member after it — an unsettled
    flight and leaked futures.  The done-check + exception guard makes
    fan-out unconditional progress.
    """
    if future is None or future.done():
        return
    try:
        future.set_result(outcome)
    except concurrent.futures.InvalidStateError:
        pass  # cancelled between the check and the set: already settled


class RequestPump:
    """Issues external calls concurrently on a background event loop.

    ``single_flight=True`` enables cross-registration coalescing of
    identical in-flight calls (see :class:`_Flight`).  It is off by
    default so the shared process-wide pump keeps the seed's
    call-per-registration behaviour; engines opt their own pumps in.
    """

    def __init__(
        self,
        limits=None,
        name="reqpump",
        resilience=None,
        tracer=None,
        metrics=None,
        clock=None,
        single_flight=False,
    ):
        self.limits = limits or PumpLimits()
        self.name = name
        self.resilience = resilience  # a ResiliencePolicy, or None
        self.tracer = tracer  # a repro.obs.trace.Tracer, or None
        self.clock = resolve_clock(
            clock
            if clock is not None
            else (tracer.clock if tracer is not None else None)
        )
        self.stats = _PumpStats(metrics)
        self._lock = threading.Lock()
        # Guards _futures/_timings against concurrent mutation from the
        # query thread (register/cancel) and the loop thread (settlement).
        self._futures_lock = threading.Lock()
        self._loop = None
        self._thread = None
        self._next_call_id = 0
        self._futures = {}  # call_id -> concurrent.futures.Future
        self._timings = {}  # call_id -> _CallTiming
        self.single_flight = bool(single_flight)
        self._flights = {}  # call key -> live _Flight
        self._members = {}  # call_id -> its _Flight
        self._global_sem = None
        self._dest_sems = {}
        self._breakers = {}  # destination -> CircuitBreaker

    @property
    def metrics(self):
        """The backing registry (shared with ``stats``)."""
        return self.stats.metrics

    # -- lifecycle ----------------------------------------------------------------

    def ensure_started(self):
        with self._lock:
            if self._loop is not None:
                return
            started = threading.Event()

            def run():
                # select() takes its timeout in microseconds; epoll_wait
                # (the default selector) rounds every wait up to whole
                # milliseconds, which would stretch each simulated 3-9 ms
                # round trip by ~1 ms — a sixth of a sequential plan's
                # wall-clock.  The loop only ever watches its own wake-up
                # pipe, so select()'s descriptor limit does not matter.
                loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
                asyncio.set_event_loop(loop)
                self._loop = loop
                started.set()
                loop.run_forever()
                # Drain callbacks scheduled during shutdown.
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

            self._thread = threading.Thread(
                target=run, name=self.name, daemon=True
            )
            self._thread.start()
            started.wait()

    def shutdown(self):
        """Stop the loop thread.  Pending calls are cancelled.

        Cancellation is *drained* before the loop stops: every task gets
        to unwind (releasing semaphores, running ``finally`` blocks, and
        settling its future) so no ``on_complete`` callback can fire
        after this method returns, and a subsequent
        :meth:`ensure_started` yields a clean pump.
        """
        with self._lock:
            loop, thread = self._loop, self._thread
            self._loop = None
            self._thread = None
            self._global_sem = None
            self._dest_sems = {}
            self._breakers = {}
        if loop is None:
            return

        async def drain():
            current = asyncio.current_task()
            tasks = [t for t in asyncio.all_tasks() if t is not current]
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

        try:
            asyncio.run_coroutine_threadsafe(drain(), loop).result(timeout=5)
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        with self._futures_lock:
            self._futures = {}
            self._timings = {}
            self._flights = {}
            self._members = {}

    # -- registration ---------------------------------------------------------------

    def register(
        self, call, on_complete, query_id=None, deadline=None, mode="async"
    ):
        """Launch *call* asynchronously; returns its call id.

        ``on_complete(call_id, rows, error)`` fires on the pump thread when
        the call finishes (exactly one of *rows*/*error* is not None).
        *query_id* and *mode* (``"sync"`` when the registrant waits for
        this call alone) only label the trace.  *deadline* (a
        :class:`~repro.serve.deadline.Deadline`, duck-typed) bounds the
        call end-to-end: the per-attempt timeout becomes
        ``min(policy.call_timeout, deadline.remaining())`` and an
        already-expired deadline fails the call fast with
        :class:`QueryDeadlineExceeded` before it can occupy a pump slot.
        """
        self.ensure_started()
        with self._lock:
            if self._loop is None:
                raise ExecutionError("request pump is shut down")
            call_id = self._next_call_id
            self._next_call_id += 1
            loop = self._loop
        registered_at = self.clock.now()
        self._launch(
            call, call_id, on_complete, query_id, loop, registered_at,
            deadline=deadline, mode=mode,
        )
        return call_id

    def register_batch(self, calls, on_complete, query_id=None, deadline=None):
        """Register many calls in one go; returns their call ids in order.

        The batched counterpart of :meth:`register` for vectorized scans:
        ids are allocated under a single lock acquisition and the call
        coroutines are submitted to the loop back-to-back, so a whole
        batch of external requests enters the event loop in one burst —
        the pump can saturate its concurrency limits within one consumer
        round trip instead of one registration per produced tuple.
        Per-call semantics (tracing, stats, settlement) are identical to
        :meth:`register`.
        """
        calls = list(calls)
        if not calls:
            return []
        self.ensure_started()
        with self._lock:
            if self._loop is None:
                raise ExecutionError("request pump is shut down")
            first_id = self._next_call_id
            self._next_call_id += len(calls)
            loop = self._loop
        registered_at = self.clock.now()
        call_ids = []
        for offset, call in enumerate(calls):
            call_id = first_id + offset
            self._launch(
                call,
                call_id,
                on_complete,
                query_id,
                loop,
                registered_at,
                batch=len(calls),
                deadline=deadline,
            )
            call_ids.append(call_id)
        return call_ids

    def _launch(
        self,
        call,
        call_id,
        on_complete,
        query_id,
        loop,
        registered_at,
        batch=None,
        deadline=None,
        mode="async",
    ):
        """Common registration tail: stats, trace, and task/flight wiring.

        With single-flight off (or a keyless call) this is exactly the
        historical path: one coroutine per registration, the coroutine's
        future doubling as the settlement future.  With single-flight on,
        registration routes through :meth:`_register_flight`, which
        either launches a new :class:`_Flight` or joins an existing one.
        """
        destination = call.destination
        self.stats.bump(destination, "registered")
        tracer = self.tracer
        if tracer is not None:
            args = {
                "mode": mode,
                "key": str(call.key) if call.key is not None else None,
            }
            if batch is not None:
                args["batch"] = batch
            tracer.emit(
                CALL_REGISTER,
                call_id=call_id,
                query_id=query_id,
                destination=destination,
                ts=registered_at,
                **args,
            )
        if self.single_flight and call.key is not None:
            self._register_flight(
                call, call_id, on_complete, query_id, loop, registered_at,
                deadline=deadline,
            )
            return
        # Store the future *under the lock before the loop thread can
        # settle the call*: the settlement callback (attached below)
        # performs the pop, so a fast completion can no longer race the
        # assignment and leak the entry.
        with self._futures_lock:
            self._timings[call_id] = _CallTiming(
                registered_at, query_id, deadline
            )
            future = asyncio.run_coroutine_threadsafe(
                self._run_call(call_id, call, on_complete), loop
            )
            self._futures[call_id] = future
        future.add_done_callback(
            lambda fut: self._settle(call_id, destination, fut)
        )

    # -- single-flight coalescing -----------------------------------------------

    def _register_flight(
        self, call, call_id, on_complete, query_id, loop, registered_at,
        deadline=None,
    ):
        """Join the live flight for ``call.key``, or anchor a new one.

        Members may carry different deadlines; the *anchor's* deadline
        governs the shared physical task (a follower with a tighter
        budget observes its own expiry at the ReqSync wait loop, not
        here — cancelling the shared task would fail the other queries'
        identical call).
        """
        destination = call.destination
        key = call.key
        with self._futures_lock:
            self._timings[call_id] = _CallTiming(
                registered_at, query_id, deadline
            )
            member_future = concurrent.futures.Future()
            self._futures[call_id] = member_future
            flight = self._flights.get(key)
            joined = flight is not None and not flight.settled
            if joined:
                flight.members[call_id] = on_complete
                self._members[call_id] = flight
                anchor_id = flight.anchor_id
            else:
                flight = _Flight(key, destination, call_id)
                flight.members[call_id] = on_complete
                self._flights[key] = flight
                self._members[call_id] = flight
                flight.task_future = asyncio.run_coroutine_threadsafe(
                    self._run_call(call_id, call, self._flight_deliver(flight)),
                    loop,
                )
        member_future.add_done_callback(
            lambda fut, cid=call_id, dest=destination: self._settle(cid, dest, fut)
        )
        if joined:
            self.stats.bump(destination, "coalesced")
            self.metrics.counter("cache.coalesce").inc()
            self.metrics.counter(
                "cache.coalesce", destination=destination
            ).inc()
            tracer = self.tracer
            if tracer is not None:
                tracer.emit(
                    CACHE_COALESCE,
                    call_id=call_id,
                    query_id=query_id,
                    destination=destination,
                    ts=registered_at,
                    anchor=anchor_id,
                    key=str(key),
                )
        else:
            flight.task_future.add_done_callback(
                lambda fut, fl=flight: self._settle_flight(fl, fut)
            )

    def _flight_deliver(self, flight):
        """The ``on_complete`` the anchor coroutine fans out through."""

        def deliver(_anchor_id, rows, error):
            members, futures = self._drain_flight(flight)
            outcome = "error" if error is not None else "ok"
            for member_id, callback in members:
                future = futures.get(member_id)
                try:
                    callback(member_id, rows, error)
                except Exception:  # noqa: BLE001 - isolate member callbacks
                    _settle_member_future(future, "error")
                else:
                    _settle_member_future(future, outcome)

        return deliver

    def _drain_flight(self, flight):
        """Atomically retire *flight*; returns its members + their futures."""
        with self._futures_lock:
            if flight.settled:
                return [], {}
            flight.settled = True
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
            members = list(flight.members.items())
            flight.members.clear()
            futures = {}
            for member_id, _callback in members:
                self._members.pop(member_id, None)
                futures[member_id] = self._futures.get(member_id)
        return members, futures

    def _settle_flight(self, flight, task_future):
        """Backstop when the anchor task ends without delivering.

        The normal path (:meth:`_flight_deliver`) runs *inside* the task
        and retires the flight before the task future resolves — this
        callback then finds it settled and does nothing.  It only acts
        when the task was torn down without calling ``on_complete``:
        cancellation (all members detached, or pump shutdown) or an
        unexpected exception escaping :meth:`_run_call`.
        """
        members, futures = self._drain_flight(flight)
        if not members:
            return
        if task_future.cancelled():
            for member_id, _callback in members:
                future = futures.get(member_id)
                if future is not None:
                    future.cancel()
            return
        error = task_future.exception()
        for member_id, callback in members:
            future = futures.get(member_id)
            try:
                if error is not None:
                    callback(member_id, None, error)
            except Exception:  # noqa: BLE001 - isolate member callbacks
                pass
            finally:
                _settle_member_future(
                    future, "error" if error is not None else "ok"
                )

    def quiesce(self, timeout=1.0):
        """Wait (real time) until every registered call has settled.

        The query thread observes results via ``on_complete`` *before*
        the loop thread runs the settlement callback, so a reader that
        wants complete lifecycle traces/latency histograms right after a
        query returns should quiesce first.  Returns True when the pump
        settled within *timeout* seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            with self._futures_lock:
                if not self._futures:
                    return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.001)

    def cancel(self, call_id):
        """Best-effort cancellation of one registered call.

        Accounting happens at settlement (the future's done callback),
        so a call is counted as *cancelled* exactly once, and never also
        as completed/failed — the ``snapshot()["queued"]`` invariant
        holds under cancellation, double-cancellation, and
        cancel-vs-complete races.

        A single-flight member is merely *detached*: its own settlement
        future is cancelled (it counts as cancelled, emits
        ``call.cancel``), but the shared network task keeps running for
        the surviving members.  Only when the last live member leaves is
        the physical task cancelled too — so a query abandoning a
        coalesced call can never fail another query's identical call.
        """
        task_future = None
        with self._futures_lock:
            flight = self._members.pop(call_id, None)
            if flight is not None and not flight.settled:
                flight.members.pop(call_id, None)
                if not flight.members:
                    flight.settled = True
                    if self._flights.get(flight.key) is flight:
                        del self._flights[flight.key]
                    task_future = flight.task_future
            future = self._futures.get(call_id)
        if future is not None:
            future.cancel()
        if task_future is not None:
            task_future.cancel()

    def _settle(self, call_id, destination, future):
        """Final accounting for one call; runs exactly once per future."""
        with self._futures_lock:
            timing = self._timings.pop(call_id, None)
        try:
            cancelled = future.cancelled()
            failed = False
            if not cancelled:
                error = future.exception()
                failed = error is not None or future.result() == "error"
            settled_at = None
            if timing is not None:
                settled_at = timing.finished_at  # stamped inside the slot
            if settled_at is None:
                settled_at = self.clock.now()
            if cancelled:
                outcome, event = "cancelled", CALL_CANCEL
            elif failed:
                outcome, event = "failed", CALL_FAIL
            else:
                outcome, event = "completed", CALL_COMPLETE
            self.stats.bump(destination, outcome)
            query_id = timing.query_id if timing is not None else None
            if timing is not None:
                if timing.issued_at is not None:
                    self.stats.observe_latency(
                        "queue_wait", destination, timing.issued_at - timing.registered_at
                    )
                    self.stats.observe_latency(
                        "service", destination, settled_at - timing.issued_at
                    )
                self.stats.observe_latency(
                    "e2e", destination, settled_at - timing.registered_at
                )
            tracer = self.tracer
            if tracer is not None:
                tracer.emit(
                    event,
                    call_id=call_id,
                    query_id=query_id,
                    destination=destination,
                    ts=settled_at,
                    attempts=(timing.attempts if timing is not None else None),
                )
        finally:
            # Last, so that quiesce() returning means this call's counters,
            # histograms and closing trace event are all in place.
            with self._futures_lock:
                self._futures.pop(call_id, None)

    async def _run_call(self, call_id, call, on_complete):
        global_sem = self._semaphore()
        dest_sem = self._dest_semaphore(call.destination)
        tracer = self.tracer
        timing = self._timing_for(call_id)
        deadline = timing.deadline if timing is not None else None
        try:
            if tracer is not None:
                tracer.emit(
                    CALL_ENQUEUE,
                    call_id=call_id,
                    query_id=(timing.query_id if timing is not None else None),
                    destination=call.destination,
                )
            # Fail fast *before* queueing for a slot: a call whose query
            # already spent its budget must not displace live work.
            self._check_deadline(deadline, call.destination, "enqueue")
            async with _maybe(global_sem):
                async with _maybe(dest_sem):
                    # Re-check after the (possibly long) semaphore wait:
                    # the slot was just acquired, but issuing a network
                    # round trip nobody is waiting for would waste it.
                    self._check_deadline(deadline, call.destination, "issue")
                    issued_at = self.clock.now()
                    if timing is not None:
                        timing.issued_at = issued_at
                    depth = self.stats.enter_flight()
                    if tracer is not None:
                        tracer.emit(
                            CALL_ISSUE,
                            call_id=call_id,
                            query_id=(
                                timing.query_id if timing is not None else None
                            ),
                            destination=call.destination,
                            ts=issued_at,
                            in_flight=depth,
                        )
                    try:
                        rows = await self._execute_resilient(call_id, call)
                    finally:
                        if timing is not None:
                            timing.finished_at = self.clock.now()
                        self.stats.exit_flight()
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - surfaced to the query thread
            on_complete(call_id, None, exc)
            return "error"
        on_complete(call_id, rows, None)
        return "ok"

    def _timing_for(self, call_id):
        with self._futures_lock:
            return self._timings.get(call_id)

    def _check_deadline(self, deadline, destination, stage):
        """Raise ``QueryDeadlineExceeded`` if *deadline* is spent."""
        if deadline is None or not deadline.expired:
            return
        self.stats.bump(destination, "deadline_expired")
        raise QueryDeadlineExceeded(
            "deadline expired before {} for destination {!r}".format(
                stage, destination
            ),
            deadline=deadline,
        )

    def _trace_call(self, name, call_id, destination, timing=None, **args):
        # *timing* is passed by callers that already hold the entry:
        # after an anchor detaches from a coalesced flight its timing is
        # popped, and a fresh lookup would lose the query_id attribution
        # on the retry/timeout events the surviving task still emits.
        tracer = self.tracer
        if tracer is None:
            return
        if timing is None:
            timing = self._timing_for(call_id)
        tracer.emit(
            name,
            call_id=call_id,
            query_id=(timing.query_id if timing is not None else None),
            destination=destination,
            **args,
        )

    # -- resilience ---------------------------------------------------------------

    async def _execute_resilient(self, call_id, call):
        """One call under the resilience policy: timeout, retry, breaker.

        With a deadline attached the per-attempt timeout tightens to
        ``min(policy.call_timeout, deadline.remaining())``; hitting the
        *deadline* (rather than the policy timeout) is terminal —
        retrying could not possibly finish in time, so the attempt raises
        :class:`QueryDeadlineExceeded` and the retry loop refuses to
        continue.  Backoff sleeps are likewise capped at the remaining
        budget.
        """
        policy = self.resilience
        timing = self._timing_for(call_id)
        deadline = timing.deadline if timing is not None else None
        if policy is None:
            if timing is not None:
                timing.attempts = 1
            bound = deadline.budget() if deadline is not None else None
            if bound is None:
                return await call.execute_async()
            try:
                return await asyncio.wait_for(call.execute_async(), bound)
            except asyncio.TimeoutError:
                self.stats.bump(call.destination, "deadline_expired")
                raise QueryDeadlineExceeded(
                    "call to {!r} cut off by query deadline".format(
                        call.destination
                    ),
                    deadline=deadline,
                ) from None
        breaker = self._breaker_for(call.destination)
        retry = policy.retry
        attempt = 0
        while True:
            if breaker is not None and not breaker.allow():
                self.stats.bump(call.destination, "breaker_open_rejections")
                self._trace_call(
                    CALL_BREAKER_REJECT,
                    call_id,
                    call.destination,
                    timing=timing,
                    attempt=attempt,
                )
                raise BreakerOpenError(
                    "circuit breaker open for destination {!r}: "
                    "failing fast without a network round trip".format(
                        call.destination
                    )
                )
            if deadline is not None:
                timeout = deadline.budget(policy.call_timeout)
                deadline_bound = (
                    timeout is not None
                    and (
                        policy.call_timeout is None
                        or timeout < policy.call_timeout
                    )
                )
            else:
                timeout = policy.call_timeout
                deadline_bound = False
            try:
                if timing is not None:
                    timing.attempts = attempt + 1
                coroutine = call.execute_async(attempt)
                if timeout is not None:
                    rows = await asyncio.wait_for(coroutine, timeout)
                else:
                    rows = await coroutine
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - classified below
                if isinstance(exc, asyncio.TimeoutError) and not isinstance(
                    exc, RequestTimeoutError
                ):
                    if deadline_bound and deadline.expired:
                        # The *query's* budget ran out mid-attempt, not
                        # the per-call policy timeout.  Not a breaker
                        # failure (the destination may be healthy), and
                        # never retried.
                        self.stats.bump(call.destination, "deadline_expired")
                        raise QueryDeadlineExceeded(
                            "call to {!r} cut off by query deadline "
                            "(attempt {})".format(call.destination, attempt + 1),
                            deadline=deadline,
                        ) from None
                    exc = RequestTimeoutError(
                        "call to {!r} timed out after {}s (attempt {})".format(
                            call.destination, timeout, attempt + 1
                        )
                    )
                    self.stats.bump(call.destination, "timeouts")
                    self._trace_call(
                        CALL_TIMEOUT,
                        call_id,
                        call.destination,
                        timing=timing,
                        attempt=attempt,
                    )
                elif isinstance(exc, RequestTimeoutError):
                    self.stats.bump(call.destination, "timeouts")
                    self._trace_call(
                        CALL_TIMEOUT,
                        call_id,
                        call.destination,
                        timing=timing,
                        attempt=attempt,
                    )
                if breaker is not None:
                    breaker.record_failure()
                if (
                    retry is not None
                    and retry.should_retry(exc, attempt)
                    and (deadline is None or not deadline.expired)
                ):
                    self.stats.bump(call.destination, "retries")
                    delay = retry.backoff_delay(call.key, attempt)
                    if deadline is not None:
                        delay = min(delay, deadline.remaining())
                    self._trace_call(
                        CALL_RETRY,
                        call_id,
                        call.destination,
                        timing=timing,
                        attempt=attempt,
                        backoff_s=delay,
                        error=type(exc).__name__,
                    )
                    if delay > 0:
                        await asyncio.sleep(delay)
                    attempt += 1
                    continue
                raise exc
            else:
                if breaker is not None:
                    breaker.record_success()
                return rows

    def _breaker_for(self, destination):
        policy = self.resilience
        if policy is None or policy.breaker is None:
            return None
        breaker = self._breakers.get(destination)
        if breaker is None:
            breaker = CircuitBreaker(destination, policy.breaker)
            self._breakers[destination] = breaker
        return breaker

    def breakers(self):
        """Per-destination breaker snapshots (empty without a policy)."""
        return {
            destination: breaker.snapshot()
            for destination, breaker in sorted(self._breakers.items())
        }

    def snapshot(self):
        """Statistics plus circuit-breaker states, one dict."""
        payload = self.stats.snapshot()
        payload["breakers"] = self.breakers()
        return payload

    def latencies(self):
        """Per-destination queue-wait/service/e2e summaries (p50/p95/p99)."""
        return self.stats.latencies()

    # -- semaphores (created lazily on the loop thread) ---------------------------------

    def _semaphore(self):
        if self.limits.max_total is None:
            return None
        if self._global_sem is None:
            self._global_sem = asyncio.Semaphore(self.limits.max_total)
        return self._global_sem

    def _dest_semaphore(self, destination):
        limit = self.limits.limit_for(destination)
        if limit is None:
            return None
        sem = self._dest_sems.get(destination)
        if sem is None:
            sem = asyncio.Semaphore(limit)
            self._dest_sems[destination] = sem
        return sem


class _maybe:
    """Async context manager for an optional semaphore."""

    def __init__(self, semaphore):
        self.semaphore = semaphore

    async def __aenter__(self):
        if self.semaphore is not None:
            await self.semaphore.acquire()

    async def __aexit__(self, *exc):
        if self.semaphore is not None:
            self.semaphore.release()


_DEFAULT_PUMP = None
_DEFAULT_LOCK = threading.Lock()


def default_pump():
    """The process-wide shared pump (unbounded limits, no resilience)."""
    global _DEFAULT_PUMP
    with _DEFAULT_LOCK:
        if _DEFAULT_PUMP is None:
            _DEFAULT_PUMP = RequestPump(name="reqpump-default")
        return _DEFAULT_PUMP
