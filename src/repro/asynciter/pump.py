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

    The registry is fixed for the pump's life, so each metric is looked
    up once, on first use, and the handle kept: the per-call cost is a
    dict probe and the increment, not a name format and a label sort.
    """

    def __init__(self, metrics=None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._counters = {}  # (destination, key) -> (total, per-destination)
        self._histograms = {}  # (destination, kind) -> Histogram
        self._in_flight = self.metrics.gauge("pump.in_flight")

    # -- write side -----------------------------------------------------------

    def bump(self, destination, key, amount=1):
        pair = self._counters.get((destination, key))
        if pair is None:
            pair = self._counters[destination, key] = (
                self.metrics.counter("pump." + key),
                self.metrics.counter("pump." + key, destination=destination),
            )
        pair[0].inc(amount)
        pair[1].inc(amount)

    def enter_flight(self):
        """Returns the new in-flight depth (for max tracking/tracing)."""
        return self._in_flight.inc()

    def exit_flight(self):
        self._in_flight.dec()

    def observe_latency(self, kind, destination, seconds):
        histogram = self._histograms.get((destination, kind))
        if histogram is None:
            histogram = self._histograms[destination, kind] = self.metrics.histogram(
                "request.{}_seconds".format(kind), destination=destination
            )
        histogram.observe(seconds)

    # -- read side ------------------------------------------------------------

    def _destinations(self):
        return sorted({destination for destination, _ in list(self._counters)})

    def snapshot(self):
        counter = self.metrics.counter_value
        gauge = self._in_flight
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
            for destination in self._destinations()
        }
        return payload

    def latencies(self):
        """Per-destination latency summaries (p50/p95/p99, mean, count)."""
        table = {}
        for destination in self._destinations():
            for kind in _LATENCY_KINDS:
                histogram = self._histograms.get((destination, kind))
                if histogram is not None:
                    table.setdefault(destination, {})[kind] = histogram.summary()
        return table


class _Call:
    """One registered call, from registration to its one settlement.

    The pump's only per-call state.  Who waits (``on_complete``,
    ``query_id``, ``deadline``), when it moved (``registered_at``, and
    for a call that went out ``issued_at``/``finished_at``/``attempts``
    — ``finished_at`` is stamped inside the concurrency slot, before the
    semaphore is released, so a trace never shows ``limit + 1``
    overlapping requests), and how it is answered:

    - a call the probe answers is born settled — it never enters the
      call table, owns no task and waits on nobody;
    - otherwise it *anchors* a flight: ``waiters`` maps call id → record
      for every call its one physical request (``task``) will answer,
      itself first.  Alone that is the whole story; under single-flight
      (DESIGN.md §11) a later registration with the same key *joins*
      (``anchor`` points here) instead of going out.  Cancelling a
      waiter only takes it out of ``waiters``; the task is cancelled
      when the last one leaves, and until then it keeps labelling its
      retry/timeout events with the anchor's query id even after the
      anchor itself left.

    A record is settled by whoever removes it from ``waiters`` under the
    pump lock — the fan-out or ``cancel`` — which is what makes
    settlement exactly-once.
    """

    __slots__ = (
        "call_id",
        "call",
        "on_complete",
        "query_id",
        "deadline",
        "registered_at",
        "issued_at",
        "finished_at",
        "attempts",
        "anchor",
        "waiters",
        "task",
    )

    def __init__(self, call_id, call, on_complete, query_id, deadline, registered_at):
        self.call_id = call_id
        self.call = call
        self.on_complete = on_complete
        self.query_id = query_id
        self.deadline = deadline
        self.registered_at = registered_at
        self.issued_at = None
        self.finished_at = None
        self.attempts = 0
        self.anchor = None  # the record whose task answers this one, if not its own
        self.waiters = None
        self.task = None


_SETTLE_EVENTS = {
    "completed": CALL_COMPLETE,
    "failed": CALL_FAIL,
    "cancelled": CALL_CANCEL,
}


class RequestPump:
    """Issues external calls concurrently on a background event loop.

    ``single_flight=True`` enables cross-registration coalescing of
    identical in-flight calls (see :class:`_Call`).  It is off by
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
        self.single_flight = bool(single_flight)
        # One lock for the loop handle, the id counter and both tables:
        # the query threads (register/cancel) and the loop thread
        # (fan-out) meet here and nowhere else.
        self._lock = threading.Lock()
        self._loop = None
        self._thread = None
        self._next_call_id = 0
        self._calls = {}  # call_id -> _Call, every call not yet settled
        self._flights = {}  # call key -> the anchor a same-key call may join
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
        settling its waiters) so no ``on_complete`` callback can fire
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
        with self._lock:
            self._calls = {}
            self._flights = {}

    # -- registration ---------------------------------------------------------------

    def register(
        self, call, on_complete, query_id=None, deadline=None, mode="async"
    ):
        """Register *call*; returns its call id.

        ``on_complete(call_id, rows, error)`` fires exactly once unless
        the call is cancelled first (exactly one of *rows*/*error* is not
        None): on the registering thread, before this method returns,
        when ``call.probe`` answers; otherwise on the pump thread when
        the request finishes.  *query_id* and *mode* (``"sync"`` when the
        registrant waits for this call alone) only label the trace.
        *deadline* (a :class:`~repro.serve.deadline.Deadline`,
        duck-typed) bounds the call end-to-end: the per-attempt timeout
        becomes ``min(policy.call_timeout, deadline.remaining())`` and an
        already-expired deadline fails the call fast with
        :class:`QueryDeadlineExceeded` before the cache is read or a pump
        slot occupied.
        """
        return self._register((call,), on_complete, query_id, deadline, mode, None)[0]

    def register_batch(self, calls, on_complete, query_id=None, deadline=None):
        """Register many calls in one go; returns their call ids in order.

        The batched counterpart of :meth:`register` for vectorized scans:
        ids are allocated under a single lock acquisition and every
        request the cache cannot answer enters the event loop in one
        burst — the pump can saturate its concurrency limits within one
        consumer round trip instead of one registration per produced
        tuple.  Per-call semantics (tracing, stats, settlement) are
        identical to :meth:`register`.
        """
        calls = list(calls)
        return self._register(
            calls, on_complete, query_id, deadline, "async", len(calls)
        )

    def _register(self, calls, on_complete, query_id, deadline, mode, batch):
        """The one registration path: ids, accounting, probe, then flights."""
        if not calls:
            return []
        self.ensure_started()
        with self._lock:
            loop = self._loop
            if loop is None:
                raise ExecutionError("request pump is shut down")
            first_id = self._next_call_id
            self._next_call_id += len(calls)
        registered_at = self.clock.now()
        tracer = self.tracer
        misses = []
        for call_id, call in enumerate(calls, first_id):
            record = _Call(
                call_id, call, on_complete, query_id, deadline, registered_at
            )
            self.stats.bump(call.destination, "registered")
            if tracer is not None:
                args = {
                    "mode": mode,
                    "key": str(call.key) if call.key is not None else None,
                }
                if batch is not None:
                    args["batch"] = batch
                self._trace(CALL_REGISTER, record, ts=registered_at, **args)
            if call.probe is None or not self._answer(record):
                misses.append(record)
        if misses:
            self._launch(misses, loop)
        return list(range(first_id, first_id + len(calls)))

    def _answer(self, record):
        """Settle *record* here and now if its probe can; False on a miss.

        A cached result, a replayed failure or a spent deadline ends the
        call on the registering thread: no slot is queued for, the
        breaker is neither asked nor told, nothing reaches the loop.  A
        miss is the cache lookup of record; the request that follows
        only writes.
        """
        call = record.call
        rows = error = None
        try:
            self._check_deadline(record.deadline, call.destination, "enqueue")
            rows = call.probe()
        except Exception as exc:  # noqa: BLE001 - surfaced to the registrant
            error = exc
        if rows is None and error is None:
            return False
        self._settle(record, self._hand_over(record, rows, error))
        return True

    def _launch(self, misses, loop):
        """Table *misses*; each joins a live same-key flight or anchors one.

        However many flights the burst anchors, the loop is woken once:
        one callback starts all of their tasks.  A joiner may carry a
        tighter deadline than its anchor; the anchor's governs the shared
        task (the joiner notices its own expiry at the ReqSync wait loop —
        cutting the task short would fail the other queries' call).
        """
        joined = []
        anchors = []
        with self._lock:
            for record in misses:
                self._calls[record.call_id] = record
                key = record.call.key if self.single_flight else None
                anchor = self._flights.get(key) if key is not None else None
                if anchor is not None:
                    record.anchor = anchor
                    anchor.waiters[record.call_id] = record
                    joined.append(record)
                    continue
                record.waiters = {record.call_id: record}
                if key is not None:
                    self._flights[key] = record
                anchors.append(record)
            if anchors:
                loop.call_soon_threadsafe(self._start, loop, anchors)
        for record in joined:
            destination = record.call.destination
            self.stats.bump(destination, "coalesced")
            self.metrics.counter("cache.coalesce").inc()
            self.metrics.counter("cache.coalesce", destination=destination).inc()
            self._trace(
                CACHE_COALESCE,
                record,
                ts=record.registered_at,
                anchor=record.anchor.call_id,
                key=str(record.call.key),
            )

    def _start(self, loop, anchors):
        """On the loop thread: one task per flight of a registration burst."""
        with self._lock:
            for anchor in anchors:
                if anchor.waiters:  # else abandoned before it could start
                    anchor.task = loop.create_task(self._run_call(anchor))

    # -- settlement -------------------------------------------------------------------

    def _deliver(self, anchor, rows, error, cancelled=False):
        """Fan the flight's outcome out to every call still waiting on it.

        Runs on the loop thread as the last act of the task.  Retiring
        the flight and taking its waiters is one step under the lock, so
        a ``cancel`` racing this either got its record out first (and
        settles it as cancelled) or finds it gone.
        """
        with self._lock:
            waiters = list(anchor.waiters.values())
            anchor.waiters.clear()
            self._retire(anchor)
        try:
            for record in waiters:
                self._settle(
                    record,
                    "cancelled" if cancelled else self._hand_over(record, rows, error),
                )
        finally:
            # Last, so that quiesce() returning means every counter,
            # histogram and closing trace event of these calls is in place.
            with self._lock:
                for record in waiters:
                    self._calls.pop(record.call_id, None)

    def _retire(self, anchor):
        """Stop offering *anchor*'s flight to joiners (lock held)."""
        key = anchor.call.key
        if self._flights.get(key) is anchor:
            del self._flights[key]

    def _hand_over(self, record, rows, error):
        """Give one registrant its outcome; returns how the call ended."""
        try:
            record.on_complete(record.call_id, rows, error)
        except Exception:  # noqa: BLE001 - one callback cannot strand the rest
            return "failed"
        return "failed" if error is not None else "completed"

    def _settle(self, record, outcome):
        """The one settlement: counter, histograms, closing trace event.

        Called exactly once per registered call, by whoever took the
        record out of its flight (or by :meth:`_answer` for a call that
        never joined one).
        """
        destination = record.call.destination
        settled_at = record.finished_at  # stamped inside the slot
        if settled_at is None:
            settled_at = self.clock.now()
        self.stats.bump(destination, outcome)
        if record.issued_at is not None:
            self.stats.observe_latency(
                "queue_wait", destination, record.issued_at - record.registered_at
            )
            self.stats.observe_latency(
                "service", destination, settled_at - record.issued_at
            )
        self.stats.observe_latency(
            "e2e", destination, settled_at - record.registered_at
        )
        if self.tracer is not None:
            self._trace(
                _SETTLE_EVENTS[outcome], record, ts=settled_at, attempts=record.attempts
            )

    def quiesce(self, timeout=1.0):
        """Wait (real time) until every registered call has settled.

        The query thread observes results via ``on_complete`` *before*
        the loop thread finishes the call's accounting, so a reader that
        wants complete lifecycle traces/latency histograms right after a
        query returns should quiesce first.  Returns True when the pump
        settled within *timeout* seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if not self._calls:
                    return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.001)

    def cancel(self, call_id):
        """Best-effort cancellation of one registered call.

        A call already settled (or settled at registration) is left
        alone; one still waiting is taken out of its flight and counted
        as *cancelled* — exactly once, and never also as
        completed/failed, so the ``snapshot()["queued"]`` invariant holds
        under cancellation, double-cancellation, and cancel-vs-complete
        races.

        Under single-flight that only *detaches* the call: the shared
        network task keeps running for the surviving waiters.  Only when
        the last one leaves is the physical task cancelled too — so a
        query abandoning a coalesced call can never fail another query's
        identical call.
        """
        with self._lock:
            record = self._calls.get(call_id)
            if record is None:
                return
            anchor = record.anchor or record
            if anchor.waiters.pop(call_id, None) is None:
                return  # the fan-out has it: settling as completed/failed
            if not anchor.waiters:
                self._retire(anchor)
                # Under the lock, so shutdown cannot close the loop between
                # the check and the call.  No task yet: _start will skip it.
                if anchor.task is not None and self._loop is not None:
                    self._loop.call_soon_threadsafe(anchor.task.cancel)
        try:
            self._settle(record, "cancelled")
        finally:
            with self._lock:
                self._calls.pop(call_id, None)

    async def _run_call(self, anchor):
        """One physical request: queue for a slot, go out, fan the outcome out."""
        call = anchor.call
        destination = call.destination
        deadline = anchor.deadline
        tracer = self.tracer
        rows = error = None
        try:
            if tracer is not None:
                self._trace(CALL_ENQUEUE, anchor)
            # Fail fast *before* queueing for a slot: a call whose query
            # already spent its budget must not displace live work.
            self._check_deadline(deadline, destination, "enqueue")
            async with _maybe(self._semaphore()):
                async with _maybe(self._dest_semaphore(destination)):
                    # Re-check after the (possibly long) semaphore wait:
                    # the slot was just acquired, but issuing a network
                    # round trip nobody is waiting for would waste it.
                    self._check_deadline(deadline, destination, "issue")
                    anchor.issued_at = self.clock.now()
                    depth = self.stats.enter_flight()
                    if tracer is not None:
                        self._trace(
                            CALL_ISSUE, anchor, ts=anchor.issued_at, in_flight=depth
                        )
                    try:
                        rows = await self._execute_resilient(anchor)
                    finally:
                        anchor.finished_at = self.clock.now()
                        self.stats.exit_flight()
        except asyncio.CancelledError:
            # Every waiter left, or the pump is shutting down.
            self._deliver(anchor, None, None, cancelled=True)
            raise
        except Exception as exc:  # noqa: BLE001 - surfaced to the query thread
            error = exc
        self._deliver(anchor, rows, error)

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

    def _trace(self, name, record, **args):
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                name,
                call_id=record.call_id,
                query_id=record.query_id,
                destination=record.call.destination,
                **args,
            )

    # -- resilience ---------------------------------------------------------------

    async def _execute_resilient(self, record):
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
        call = record.call
        deadline = record.deadline
        if policy is None:
            record.attempts = 1
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
                self._trace(CALL_BREAKER_REJECT, record, attempt=attempt)
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
                record.attempts = attempt + 1
                coroutine = call.execute_async(attempt)
                if timeout is not None:
                    rows = await asyncio.wait_for(coroutine, timeout)
                else:
                    rows = await coroutine
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - classified below
                timed_out = isinstance(exc, RequestTimeoutError)
                if isinstance(exc, asyncio.TimeoutError) and not timed_out:
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
                    timed_out = True
                if timed_out:
                    self.stats.bump(call.destination, "timeouts")
                    self._trace(CALL_TIMEOUT, record, attempt=attempt)
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
                    self._trace(
                        CALL_RETRY,
                        record,
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
