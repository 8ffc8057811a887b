"""ReqPump: the global asynchronous request module (paper Section 4.1).

A registered external call is an *attempt generator* that yields the
seconds of each network wait and returns its rows.  Every wait in this
simulation is a known delay, so a heap of due times, one entry per
running request, is all the event loop the pump needs.  The pump owns no
thread.  A registration issues its burst on the registering thread, each
attempt up to its first wait; after that, heap entries run only inside
:meth:`RequestPump.wait`, where a query thread blocks anyway.  One waiter
at a time *drives*: it runs the entries that are due (each attempt's
compute runs there and then) and sleeps until the next one.  The other
waiters sleep until a settlement wakes them or the driver leaves, and
one of them takes the role over (leader/follower).  This is deliberately
*not* parallel query processing: like the event-driven web servers the
paper points to, one thread at a time multiplexes every in-flight
network wait.

Resource control (the paper's "monitoring and controlling resource usage")
is two layers of slot counters: one global, one per destination.
"When a call is registered with ReqPump but cannot be executed because of
resource limits, the call is placed on a queue" — a FIFO admitted oldest
first as slots free up, and the statistics expose how much queueing
happened.

Like the paper's ReqPump, the pump knows nothing about any one query: it
reads no query deadline.  A query's deadline is checked by the query
thread's one wait (``AsyncContext.wait_for_any``), which raises on
expiry; the query then cancels its calls, and :meth:`RequestPump.cancel`
only detaches a waiter, so a call shared with another query runs on for
it.

Resilience (a deliberate departure from the paper, which assumed reliable
engines): with a :class:`~repro.asynciter.resilience.ResiliencePolicy`
attached, every attempt races a per-attempt timeout entry on the heap,
transient failures are retried after a deterministic backoff entry, and a
per-destination :class:`~repro.asynciter.resilience.CircuitBreaker`, on
the pump's ``clock``, fails fast while a destination is down.

Observability: the pump's statistics (:class:`_PumpStats`) are a view
over a :class:`~repro.obs.metrics.MetricsRegistry`: counters, the
in-flight gauge and per-destination queue-wait / service / end-to-end
latency histograms.  A :class:`~repro.obs.trace.Tracer` attached gets the
request-lifecycle events ``register → enqueue → issue →
(retry|timeout|breaker_reject)* → complete|cancel|fail`` by call id and
query id; without one each costs one ``None`` check.
"""

import collections
import heapq
import math
import threading
import time

from repro.asynciter.resilience import HALF_OPEN, CircuitBreaker
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
from repro.util.errors import BreakerOpenError, PumpShutDown, RequestTimeoutError
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
    "registered", "completed", "failed", "cancelled",
    "retries", "timeouts", "breaker_open_rejections", "coalesced",
)

#: Histogram kinds the pump observes per settled call.
_LATENCY_KINDS = ("queue_wait", "service", "e2e")


class _PumpStats:
    """Pump statistics, backed by a :class:`MetricsRegistry`.

    ``snapshot()`` returns the counters as one dict; ``bump`` adds to
    one global and one per-destination counter.  The storage is the
    registry, so ``pump.metrics`` readers see the same numbers; ``queued``
    is read from the pump that owns the queue.  Each metric is looked up
    once, on first use, and its handle kept.
    """

    def __init__(self, metrics, queued):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._counters = {}  # (destination, key) -> (total, per-destination)
        self._histograms = {}  # (destination, kind) -> Histogram
        self._in_flight = self.metrics.gauge("pump.in_flight")
        self._queued = queued

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

    def observe_latency(self, kind, destination, seconds, count=1):
        histogram = self._histograms.get((destination, kind))
        if histogram is None:
            histogram = self._histograms[destination, kind] = self.metrics.histogram(
                "request.{}_seconds".format(kind), destination=destination
            )
        histogram.observe(seconds, count)

    # -- read side ------------------------------------------------------------

    def _destinations(self):
        return sorted({destination for destination, _ in list(self._counters)})

    def snapshot(self):
        counter = self.metrics.counter_value
        gauge = self._in_flight
        payload = {key: counter("pump." + key) for key in _DEST_COUNTER_KEYS}
        payload["in_flight"] = gauge.value
        payload["max_in_flight"] = gauge.max_value
        # Calls whose request waits for a slot: the paper's "placed on a
        # queue" calls (a call coalesced onto a flight that is out is not).
        payload["queued"] = self._queued()
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
    """One registered call the probe did not answer, from registration
    to its one settlement (a call the probe answers gets no record).

    The pump's only per-call state.  Who waits (``on_complete``,
    ``query_id``), when it moved (``registered_at``, ``asked_at`` (for a
    slot), ``issued_at``, ``finished_at`` — stamped before the slot is
    freed, so a trace never shows ``limit + 1`` overlapping requests —
    and ``attempts``), and which flight answers it: a record *anchors*
    one (``waiters`` maps call id → record for every call its one
    physical request will answer, itself first), or under single-flight
    (DESIGN.md §11) it *joins* a live one with its key (``anchor`` points
    there).  Cancelling a waiter only takes it out of ``waiters``; the
    request is abandoned when the last one leaves, and until then it
    labels its retry/timeout events with the anchor's query id.

    An anchor's flight state belongs to whoever runs it — the registering
    thread up to the first wait, then the driver of each heap entry:
    ``gen`` (the running attempt), ``timeout``/``cutoff`` (the attempt's
    bound, relative and absolute), ``slot`` (a concurrency slot is held),
    ``permit`` (the attempt is its breaker's half-open probe and owes it
    a verdict), ``wake``, the sequence number of its one live heap
    entry, and ``done``, set under the pump lock by whoever ends the
    flight, so it ends once.

    A record is settled by whoever removes it from ``waiters`` under the
    pump lock — the fan-out or ``cancel`` — which is what makes
    settlement exactly-once.
    """

    __slots__ = (
        "call_id", "call", "on_complete", "query_id", "registered_at", "asked_at",
        "issued_at", "finished_at", "attempts", "anchor", "waiters", "gen", "timeout", "cutoff",
        "slot", "permit", "done", "wake",
    )

    def __init__(self, call_id, call, on_complete, query_id, registered_at):
        self.call_id = call_id
        self.call = call
        self.on_complete = on_complete
        self.query_id = query_id
        self.registered_at = registered_at
        self.asked_at = None
        self.issued_at = None
        self.finished_at = None
        self.attempts = 0
        self.anchor = None  # the record whose request answers this one, if not its own
        self.waiters = None
        self.gen = None
        self.timeout = None
        self.cutoff = None
        self.slot = False
        self.permit = False
        self.done = False
        self.wake = None


_SETTLE_EVENTS = {"completed": CALL_COMPLETE, "failed": CALL_FAIL, "cancelled": CALL_CANCEL}


class RequestPump:
    """Issues external calls concurrently from one timer heap that its
    waiters drive.

    ``single_flight=True`` enables cross-registration coalescing of
    identical in-flight calls (see :class:`_Call`).  Every pump a
    :class:`~repro.wsq.engine.WsqEngine` builds for itself sets it; a
    pump built by hand issues one request per registration unless it
    asks for it too.  ``name`` names nothing (the pump starts no
    thread); it is kept because ``perf/adapter.py`` passes it.
    """

    def __init__(self, limits=None, name="reqpump", resilience=None, tracer=None,
                 metrics=None, clock=None, single_flight=False):
        self.limits = limits or PumpLimits()
        self.name = name
        self.resilience = resilience  # a ResiliencePolicy, or None
        self.tracer = tracer  # a repro.obs.trace.Tracer, or None
        self.clock = resolve_clock(
            clock if clock is not None else (tracer.clock if tracer is not None else None)
        )
        self.stats = _PumpStats(metrics, self._queued)
        self.single_flight = bool(single_flight)
        # One lock (under one condition) for the driver role, the id
        # counter, both tables, the heap and the slots: every thread that
        # registers, cancels, waits or drives meets here.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._driver = None  # ident of the waiter that runs the heap
        self._next_call_id = 0
        self._calls = {}  # call_id -> _Call, every call not yet settled
        self._flights = {}  # call key -> the anchor a same-key call may join
        self._heap = []  # (due, seq): a replaced entry pins nothing
        self._live = {}  # seq -> (handler, anchor), the entries still wanted
        self._seq = 0
        self._wake_at = -math.inf  # the sleeping driver's target; -inf: none sleeps
        self._busy = 0  # slots in use
        self._busy_at = {}  # destination -> slots in use
        self._queue = collections.deque()  # anchors waiting for a slot
        self._breakers = {}  # destination -> CircuitBreaker

    @property
    def metrics(self):
        """The backing registry (shared with ``stats``)."""
        return self.stats.metrics

    def _now(self):
        """The heap's clock: every due time, timeout and backoff."""
        return time.monotonic()

    # -- the driver: heap entries run only here ---------------------------------------

    def wait(self, until, timeout=None):
        """Block until ``until()`` is true or *timeout* seconds pass
        (``None``: no bound); returns ``until()``'s last value.

        The one place heap entries run.  One waiter at a time drives: it
        runs every entry that is due, then sleeps until the next due
        time, a push that lands before it, or its own timeout.  The
        others sleep until a settlement wakes them or the driver leaves;
        the driver leaves once its own *until* holds, and one of them
        takes the role over.  *until* runs under the pump lock, so it
        must be quick and must not call into the pump, and no caller may
        hold a lock that an ``on_complete`` takes while it waits here.
        An entry that raises ends its own flight with that error and the
        raise propagates; the rest of the heap waits for the next driver.
        """
        me = threading.get_ident()
        give_up = math.inf if timeout is None else self._now() + timeout
        heap = self._heap
        with self._lock:
            try:
                while True:
                    met = until()
                    now = self._now()
                    if met or now >= give_up:
                        return met
                    if self._driver is None:
                        self._driver = me
                    due = give_up
                    if self._driver == me:
                        if heap and heap[0][0] <= now:
                            while heap and heap[0][0] <= now:
                                self._run_next()
                            continue
                        if heap:
                            due = min(due, heap[0][0])
                        self._wake_at = due
                    self._cond.wait(None if due == math.inf else due - now)
                    if self._driver == me:
                        self._wake_at = -math.inf
            finally:
                if self._driver == me:
                    self._driver = None
                    self._wake_at = -math.inf
                    self._cond.notify_all()  # a follower takes the role over

    def _run_next(self):
        """Pop the earliest entry and run it with the lock released (held
        on entry and on exit)."""
        entry = self._live.pop(heapq.heappop(self._heap)[1], None)
        if entry is None:
            return
        handler, anchor = entry
        self._lock.release()
        try:
            handler(anchor)
        except BaseException as exc:
            # Not one more of this flight's waiters may wait for it.
            self._close(anchor)
            self._end(anchor, None, exc)
            raise
        finally:
            self._lock.acquire()

    def _push(self, due, handler, anchor):
        """Heap ``handler(anchor)`` at *due* in place of the anchor's
        pending entry (lock held)."""
        self._live.pop(anchor.wake, None)
        self._seq += 1
        anchor.wake = self._seq
        self._live[self._seq] = (handler, anchor)
        heapq.heappush(self._heap, (due, self._seq))
        if due < self._wake_at:
            self._wake_at = -math.inf
            self._cond.notify_all()

    def shutdown(self):
        """Abandon every flight, here and now, and clear the breakers.

        Each call still waiting is told :class:`PumpShutDown` and counted
        as cancelled, so a query blocked on the pump raises it at once.
        The pump stays usable: a later registration goes out as usual,
        past fresh breakers.
        """
        with self._lock:
            # A queued flight has a waiter in the call table, or its
            # abandonment is a live entry or already done.
            anchors = [anchor for _, anchor in self._live.values()]
            anchors += [record.anchor or record for record in self._calls.values()]
            self._live.clear()
            del self._heap[:]
            self._queue.clear()
        for anchor in anchors:
            self._abandon(anchor)
        self._breakers = {}

    # -- registration ---------------------------------------------------------------

    def register(self, calls, on_complete, query_id=None, mode="async"):
        """Register *calls*; returns their call ids in order.

        ``on_complete(call_id, rows, error)`` fires exactly once per call
        unless it is cancelled first (exactly one of *rows*/*error* is
        not None): on the registering thread, before this method
        returns, when ``call.probe`` answers; otherwise on whichever
        thread ends the request, usually a waiter driving the heap.  Ids
        are allocated under one lock acquisition, the burst is tabled
        under one more, and every flight it anchors is then issued here,
        up to its attempt's first wait.  *query_id* and *mode* (``"sync"``
        when the registrant waits for these calls alone) label the trace;
        every ``call.register`` event carries ``batch``, the length of
        *calls*.

        A call whose probe answers (a cached result, or a probe that
        raised) settles in this one pass: no slot is queued for, the
        breaker is neither asked nor told, nothing reaches the heap.  A
        miss is the cache lookup of record; the request that follows only
        writes.  The burst is accounted per destination, not per call:
        ``registered`` and each outcome are bumped once by its count, and
        the ``e2e`` histogram takes the burst's one wait with that count.
        """
        calls = list(calls)
        if not calls:
            return []
        with self._lock:
            first_id = self._next_call_id
            self._next_call_id += len(calls)
        registered_at = self.clock.now()
        tracer = self.tracer
        misses = []
        registered = {}  # destination -> calls in this burst
        answered = {}  # (destination, outcome) -> calls the probe settled
        for call_id, call in enumerate(calls, first_id):
            destination = call.destination
            registered[destination] = registered.get(destination, 0) + 1
            if tracer is not None:
                tracer.emit(
                    CALL_REGISTER, call_id=call_id, query_id=query_id,
                    destination=destination, ts=registered_at, mode=mode,
                    key=str(call.key) if call.key is not None else None, batch=len(calls),
                )
            rows = error = None
            if call.probe is not None:
                try:
                    rows = call.probe()
                except Exception as exc:  # noqa: BLE001 - surfaced to the registrant
                    error = exc
            if rows is None and error is None:
                misses.append(_Call(call_id, call, on_complete, query_id, registered_at))
                continue
            outcome = self._hand_over(on_complete, call_id, rows, error)
            answered[destination, outcome] = answered.get((destination, outcome), 0) + 1
            if tracer is not None:
                tracer.emit(
                    _SETTLE_EVENTS[outcome], call_id=call_id, query_id=query_id,
                    destination=destination, ts=self.clock.now(), attempts=0,
                )
        bump = self.stats.bump
        for destination, count in registered.items():
            bump(destination, "registered", count)
        if answered:
            waited = self.clock.now() - registered_at
            for (destination, outcome), count in answered.items():
                bump(destination, outcome, count)
                self.stats.observe_latency("e2e", destination, waited, count)
        if misses:
            self._launch(misses)
        return list(range(first_id, first_id + len(calls)))

    def _launch(self, misses):
        """Table *misses*; each joins a live same-key flight or anchors one.

        Every flight the burst anchors is then begun on this thread, so
        its waits start at registration, before the registrant blocks.
        No waiter's query deadline touches the shared request: a query
        whose deadline expires raises in its own
        ``AsyncContext.wait_for_any`` and cancels its calls, which only
        takes its waiters out of their flights.
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
        for anchor in anchors:
            self._begin(anchor)
        for record in joined:
            self.stats.bump(record.call.destination, "coalesced")
            self._trace(
                CACHE_COALESCE,
                record,
                ts=record.registered_at,
                anchor=record.anchor.call_id,
                key=str(record.call.key),
            )

    # -- one flight -------------------------------------------------------------------

    def _begin(self, anchor):
        """Trace the enqueue, then take a slot and go out, or queue for one.
        The queue wait counts from here, not from the burst's registration."""
        anchor.asked_at = self.clock.now()
        self._trace(CALL_ENQUEUE, anchor, ts=anchor.asked_at)
        with self._lock:
            claimed = self._claim(anchor)
            if not claimed:
                self._queue.append(anchor)
        if claimed:
            self._issue(anchor)

    def _issue(self, anchor):
        """The slot is held: go out."""
        anchor.issued_at = self.clock.now()
        depth = self.stats.enter_flight()
        self._trace(CALL_ISSUE, anchor, ts=anchor.issued_at, in_flight=depth)
        self._attempt(anchor)

    def _attempt(self, anchor):
        """Start the next attempt under the resilience policy.

        The breaker is asked first; the attempt's timeout is the policy's
        ``call_timeout``.
        """
        call = anchor.call
        policy = self.resilience
        breaker = self._breaker_for(call.destination)
        if breaker is not None:
            admitted = breaker.allow()
            if admitted is None:
                self.stats.bump(call.destination, "breaker_open_rejections")
                self._trace(CALL_BREAKER_REJECT, anchor, attempt=anchor.attempts)
                error = BreakerOpenError(
                    "circuit breaker open for destination {!r}: "
                    "failing fast without a network round trip".format(call.destination)
                )
                return self._end(anchor, None, error)
            anchor.permit = admitted == HALF_OPEN
        timeout = policy.call_timeout if policy is not None else None
        number = anchor.attempts
        anchor.attempts += 1
        anchor.timeout = timeout
        try:
            anchor.gen = call.execute_async(number)
        except Exception as exc:  # noqa: BLE001 - classified by _failed
            return self._failed(anchor, exc)
        if timeout is not None:
            anchor.cutoff = self._now() + timeout
        self._step(anchor)

    def _step(self, anchor):
        """Resume the attempt: heap its next wait, or settle how it ended."""
        try:
            delay = next(anchor.gen)
        except StopIteration as stop:
            anchor.gen = anchor.cutoff = None
            breaker = self._breaker_for(anchor.call.destination)
            if breaker is not None:
                anchor.permit = False
                breaker.record_success()
            self._end(anchor, stop.value, None)
        except Exception as exc:  # noqa: BLE001 - classified by _failed
            self._failed(anchor, exc)
        else:
            self._schedule(anchor, delay, self._step)

    def _schedule(self, anchor, delay, handler):
        """``handler(anchor)`` after *delay*, or the timeout if the cutoff
        comes first — unless every waiter left."""
        due = self._now() + delay
        if anchor.cutoff is not None and anchor.cutoff < due:
            due, handler = anchor.cutoff, self._time_out
        with self._lock:
            if anchor.waiters:
                return self._push(due, handler, anchor)
        self._abandon(anchor)

    def _time_out(self, anchor):
        """The policy's per-attempt cutoff came first: close the attempt
        and fail it with :class:`RequestTimeoutError`, which the retry
        policy and the breaker treat like any other failure."""
        self._close(anchor)
        error = RequestTimeoutError(
            "call to {!r} timed out after {}s (attempt {})".format(
                anchor.call.destination, anchor.timeout, anchor.attempts
            )
        )
        self._failed(anchor, error)

    def _failed(self, anchor, exc):
        """Retry a failed attempt after its backoff, or end the flight
        with *exc*."""
        anchor.gen = anchor.cutoff = None
        policy = self.resilience
        if policy is None:
            return self._end(anchor, None, exc)
        call = anchor.call
        destination = call.destination
        attempt = anchor.attempts - 1
        if isinstance(exc, RequestTimeoutError):
            self.stats.bump(destination, "timeouts")
            self._trace(CALL_TIMEOUT, anchor, attempt=attempt)
        breaker = self._breaker_for(destination)
        if breaker is not None:
            anchor.permit = False
            breaker.record_failure()
        retry = policy.retry
        if retry is None or not retry.should_retry(exc, attempt):
            return self._end(anchor, None, exc)
        self.stats.bump(destination, "retries")
        delay = retry.backoff_delay(call.key, attempt)
        self._trace(CALL_RETRY, anchor, attempt=attempt, backoff_s=delay, error=type(exc).__name__)
        self._schedule(anchor, delay, self._attempt)

    def _close(self, anchor):
        """Close the running attempt; ``GeneratorExit`` records nothing."""
        gen, anchor.gen = anchor.gen, None
        if gen is not None:
            try:
                gen.close()
            except Exception:  # noqa: BLE001 - the attempt is abandoned anyway
                pass

    def _abandon(self, anchor):
        """Every waiter left, or the pump shut down: end as cancelled."""
        self._close(anchor)
        self._end(anchor, None, None, cancelled=True)

    def _end(self, anchor, rows, error, cancelled=False):
        """The flight is over: stamp it, fan the outcome out, free the slot.

        Marking the anchor done, dropping its heap entry, retiring the
        flight and taking its waiters is one step under the lock, so a
        second ending (a shutdown racing the driver) does nothing, and a
        ``cancel`` racing this either got its record out first (and
        settles it as cancelled) or finds it gone.  Only a shutdown
        abandons a flight that still has waiters; each is told so.  A
        half-open probe that ends with no verdict hands its permit back,
        or its breaker would stay half-open and reject every later call.
        """
        with self._lock:
            if anchor.done:
                return
            anchor.done = True
            self._live.pop(anchor.wake, None)
            self._retire(anchor)
            waiters = list(anchor.waiters.values())
            anchor.waiters.clear()
        anchor.cutoff = None
        if anchor.permit:
            anchor.permit = False
            self._breaker_for(anchor.call.destination).release()
        if anchor.issued_at is not None:
            anchor.finished_at = self.clock.now()
            self.stats.exit_flight()
        try:
            for record in waiters:
                if cancelled:
                    shut = PumpShutDown("request pump is shut down")
                    self._hand_over(record.on_complete, record.call_id, None, shut)
                    self._settle(record, "cancelled")
                else:
                    outcome = self._hand_over(record.on_complete, record.call_id, rows, error)
                    self._settle(record, outcome)
        finally:
            # Last, so that quiesce() returning means every counter,
            # histogram and closing trace event of these calls is in place.
            self._untable(waiters)
        if anchor.slot:
            self._free_slot(anchor)

    # -- slots --------------------------------------------------------------------

    def _claim(self, anchor):
        """Take a concurrency slot for *anchor* if the limits allow (lock held)."""
        destination = anchor.call.destination
        held = self._busy_at.get(destination, 0)
        cap = self.limits.limit_for(destination)
        total = self.limits.max_total
        if (total is not None and self._busy >= total) or (cap is not None and held >= cap):
            return False
        anchor.slot = True
        self._busy += 1
        self._busy_at[destination] = held + 1
        return True

    def _free_slot(self, anchor):
        """Give *anchor*'s slot back, then admit queued calls, oldest first.

        An admitted call is issued from a heap entry due now, not from
        here: a run of calls that end as soon as they are issued (an open
        breaker) then frees and re-admits in a loop of heap entries
        instead of recursing once per queued call.
        """
        with self._lock:
            anchor.slot = False
            self._busy -= 1
            self._busy_at[anchor.call.destination] -= 1
            if not self._queue:
                return
            waiting, self._queue = self._queue, collections.deque()
            total = self.limits.max_total
            admitted = []
            while waiting and (total is None or self._busy < total):
                queued = waiting.popleft()
                if not queued.done:
                    (admitted if self._claim(queued) else self._queue).append(queued)
            self._queue.extend(waiting)
            now = self._now()
            for queued in admitted:
                # A call whose every waiter left holds its slot until abandoned.
                self._push(now, self._issue if queued.waiters else self._abandon, queued)

    def _queued(self):
        """Calls whose request waits for a slot: every queued flight's
        waiters (read off a copy, without the lock)."""
        return sum(len(anchor.waiters) for anchor in list(self._queue))

    # -- settlement -------------------------------------------------------------------

    def _untable(self, records):
        """Drop settled *records* and wake every waiter: one of theirs
        may be among them."""
        with self._lock:
            for record in records:
                self._calls.pop(record.call_id, None)
            self._cond.notify_all()

    def _retire(self, anchor):
        """Stop offering *anchor*'s flight to joiners (lock held)."""
        key = anchor.call.key
        if self._flights.get(key) is anchor:
            del self._flights[key]

    @staticmethod
    def _hand_over(on_complete, call_id, rows, error):
        """Give one registrant its outcome; returns how the call ended."""
        try:
            on_complete(call_id, rows, error)
        except Exception:  # noqa: BLE001 - one callback cannot strand the rest
            return "failed"
        return "failed" if error is not None else "completed"

    def _settle(self, record, outcome):
        """The one settlement: counter, histograms, closing trace event.

        Called exactly once per call that joined a flight, by whoever
        took its record out (:meth:`register` accounts the calls its
        probes settle).
        """
        destination = record.call.destination
        settled_at = record.finished_at  # stamped before the slot was freed
        if settled_at is None:
            settled_at = self.clock.now()
        self.stats.bump(destination, outcome)
        observe = self.stats.observe_latency
        if record.issued_at is not None:
            observe("queue_wait", destination, record.issued_at - record.asked_at)
            observe("service", destination, settled_at - record.issued_at)
        observe("e2e", destination, settled_at - record.registered_at)
        if self.tracer is not None:
            self._trace(_SETTLE_EVENTS[outcome], record, ts=settled_at, attempts=record.attempts)

    def quiesce(self, timeout=1.0):
        """Drive the heap until every registered call has settled and no
        entry is live (every abandoned request closed, its slot given
        back); True if that happened within *timeout* seconds.

        A waiter takes its result in ``on_complete``, before the call's
        accounting and closing trace event are recorded, so a reader that
        wants complete lifecycle traces or latency histograms, or an
        ``in_flight`` of 0, right after a query returns quiesces first.
        """
        return self.wait(lambda: not self._calls and not self._live, timeout)

    def cancel(self, call_id):
        """Best-effort cancellation of one registered call.

        A call already settled (or settled at registration) is left
        alone; one still waiting is taken out of its flight and counted
        as *cancelled* — exactly once, and never also as
        completed/failed, under cancellation, double-cancellation, and
        cancel-vs-complete races.

        Under single-flight that only *detaches* the call: the shared
        request keeps running for the surviving waiters.  Only when the
        last one leaves is the request abandoned too — by the driver,
        from an entry due now that replaces the flight's pending one, or
        here when nobody drives — so a query abandoning a coalesced call
        can never fail another query's identical call.
        """
        with self._lock:
            record = self._calls.get(call_id)
            if record is None:
                return
            anchor = record.anchor or record
            if anchor.waiters.pop(call_id, None) is None:
                return  # the fan-out has it: settling as completed/failed
            abandon = not anchor.waiters
            if abandon:
                self._retire(anchor)
                if self._driver is not None:
                    self._push(self._now(), self._abandon, anchor)
                    abandon = False
                else:
                    self._live.pop(anchor.wake, None)
        try:
            self._settle(record, "cancelled")
        finally:
            self._untable((record,))
        if abandon:
            self._abandon(anchor)

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

    def _breaker_for(self, destination):
        policy = self.resilience
        if policy is None or policy.breaker is None:
            return None
        breaker = self._breakers.get(destination)
        if breaker is None:
            breaker = self._breakers.setdefault(
                destination, CircuitBreaker(destination, policy.breaker, self.clock)
            )
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


def drive(attempt):
    """Run one attempt generator on the calling thread: sleep through
    each wait it yields, return its rows (a failure propagates).  No
    pump, so no retry, timeout, breaker or slot."""
    try:
        while True:
            time.sleep(next(attempt))
    except StopIteration as done:
        return done.value
