"""AsyncContext: the per-query ReqPumpHash plus consumer signalling.

The paper stores each completed call's data "in a hash table ReqPumpHash,
keyed on C", and has ReqPump signal the consuming ReqSync.  AsyncContext
is that pair: a results dict filled by the pump (by whichever waiting
thread drives it, or on the registering thread for a call the result
cache answers), and the query thread's one wait, which blocks in the
pump's :meth:`~repro.asynciter.pump.RequestPump.wait` and drives the
pump's heap while it does.  One context serves a whole query, so a plan
with several ReqSync operators (Figure 7(b)) shares it.

In-flight deduplication (``dedup=True``, the default) extends this with
the call-minimization idea of Chaudhuri/Dayal/Yan [CDY95]: when the same
query registers two identical external calls — e.g. the paper's Figure 7
plan sends |R| identical searches per Sig — the second registration
reuses the first call id instead of hitting the network again.  A result
cache cannot catch these (the first call has not completed when the
duplicates arrive); deduplication here is what removes them.  Results are
lease-counted so every registrant can consume them.
"""

import math
import threading
import time

from repro.obs.trace import CALL_DEDUP
from repro.util.errors import ExecutionError, PumpShutDown, QueryDeadlineExceeded

#: Safety valve so a lost completion signal cannot hang a query forever.
DEFAULT_WAIT_TIMEOUT = 60.0

#: With a deadline attached, the blocking wait is sliced this fine so
#: expiry/cancellation is observed within one slice, not one wait timeout.
DEADLINE_POLL_INTERVAL = 0.05


class AsyncContext:
    """Result store + producer/consumer synchronization for one query.

    ``tracer``/``query_id`` are the observability correlation handles:
    every call registered through this context carries *query_id* into
    the pump's lifecycle events, and dedup hits (which never reach the
    pump) are traced here.
    """

    def __init__(self, pump, dedup=True, tracer=None, query_id=None, deadline=None):
        self.pump = pump
        self.dedup = dedup
        self.tracer = tracer
        self.query_id = query_id
        #: Per-query time budget (duck-typed Deadline), checked by
        #: :meth:`wait_for_any`; the pump never sees it.
        self.deadline = deadline
        # Guards the tables below; never held while waiting on the pump.
        self._lock = threading.Lock()
        self._results = {}  # call_id -> list of result-field dicts
        self._errors = {}  # call_id -> Exception
        self._by_key = {}  # call.key -> call_id (for dedup)
        self._key_of = {}  # call_id -> call.key
        self._leases = {}  # call_id -> outstanding take_result count
        self._dest_of = {}  # call_id -> destination (for diagnostics)
        self.dedup_hits = 0
        self.calls_registered = 0
        self.call_errors = 0  # errors observed by take_result

    # -- producer side ------------------------------------------------------------

    def register(self, calls, mode="async"):
        """Launch *calls* through the pump; returns their call ids in order.

        Deduplication applies both against calls already in flight and
        *within* the list (the paper's Figure 7 workload sends many
        identical searches per batch); only novel calls reach the pump,
        in one ``pump.register`` burst.  *mode* is passed through.
        Every call's outcome is kept for :meth:`take_result`.
        """
        return self._register(calls, mode, None)

    def open(self, calls, mode="async"):
        """:meth:`register`, handing back what is already answered:
        ``(call_ids, answered)``, *answered* mapping the id of each call
        whose rows arrived before the burst returned (a cache hit, or a
        miss another thread already settled) to those rows.

        The caller takes them for every registrant in the list, so they
        are not kept: no lease, no dedup anchor, nothing to free.  A
        failed call is not answered; its error is kept as usual.
        """
        answered = {}
        return self._register(calls, mode, answered), answered

    def _register(self, calls, mode, answered):
        calls = list(calls)
        call_ids = [None] * len(calls)
        fresh = []  # (position, call) pairs that must reach the pump
        dup_of = []  # (position, anchor position) duplicates within the list
        anchors = {}  # call.key -> position of its first fresh call
        for position, call in enumerate(calls):
            key = call.key
            if self.dedup and key is not None:
                existing = self._by_key.get(key)
                if existing is not None:
                    self._reuse_inflight(existing, call)
                    call_ids[position] = existing
                    continue
                anchor = anchors.get(key)
                if anchor is not None:
                    dup_of.append((position, anchor))
                    continue
                anchors[key] = position
            fresh.append((position, call))
        new_ids = self.pump.register(
            [call for _, call in fresh], self._on_complete, query_id=self.query_id, mode=mode
        )
        self.calls_registered += len(new_ids)
        results = self._results
        with self._lock:
            for (position, call), call_id in zip(fresh, new_ids):
                call_ids[position] = call_id
                if answered is not None and call_id in results:
                    answered[call_id] = results.pop(call_id)
                    continue
                self._leases[call_id] = 1
                self._dest_of[call_id] = call.destination
                if self.dedup and call.key is not None:
                    self._by_key[call.key] = call_id
                    self._key_of[call_id] = call.key
        for position, anchor in dup_of:
            call_id = call_ids[anchor]
            self._reuse_inflight(call_id, calls[position], answered)
            call_ids[position] = call_id
        return call_ids

    def run(self, call):
        """Register *call* and wait for it alone: ``(call_id, rows, error)``.

        The blocking form of :meth:`register`.  A query that reaches the
        pump only through here has one call outstanding at a time — the
        paper's sequential schedule, on the same path as the concurrent
        one, and under the same deadline checkpoint
        (:meth:`wait_for_any`).  The error comes back raw (not wrapped as
        by :meth:`take_result`), so the caller chooses between raising it
        and degrading.
        """
        (call_id,), answered = self.open([call], mode="sync")
        if answered:
            self._check_deadline()
            return call_id, answered[call_id], None
        try:
            self.wait_for_any((call_id,), timeout=DEFAULT_WAIT_TIMEOUT)
        except BaseException:
            self.pump.cancel(call_id)
            raise
        error = self.error_of(call_id)
        if error is not None:
            return call_id, None, error
        return call_id, self.take_result(call_id), None

    def _reuse_inflight(self, call_id, call, answered=None):
        """Account one dedup hit: a new lease on an in-flight call (none
        on a call whose rows are handed back in *answered*)."""
        if answered is None or call_id not in answered:
            with self._lock:
                self._leases[call_id] += 1
        self.dedup_hits += 1
        if self.tracer is not None:
            self.tracer.emit(
                CALL_DEDUP,
                call_id=call_id,
                query_id=self.query_id,
                destination=call.destination,
                key=str(call.key),
            )

    def _on_complete(self, call_id, rows, error):
        """Store one outcome.

        Runs on the thread that ends the call: a waiter driving the pump
        (this query's or another's), or, for a call the pump answered
        from the cache at registration, the registering thread itself,
        before ``register`` has returned.  One dict store, atomic on its
        own: the lock guards only what the query thread reads and
        changes together (results, leases and dedup anchors).
        """
        if error is not None:
            self._errors[call_id] = error
        else:
            self._results[call_id] = rows

    # -- consumer side (query thread) ----------------------------------------------

    def completed(self, call_ids):
        """Subset of *call_ids* whose results (or errors) have arrived."""
        with self._lock:
            return {cid for cid in call_ids if cid in self._results or cid in self._errors}

    def wait_for_any(self, call_ids, timeout=None):
        """Block until at least one of *call_ids* completes; return those.

        The wait is :meth:`RequestPump.wait`: the query thread drives the
        pump's heap (or follows another waiter that does) until one of its
        calls settles.  This is the query thread's one deadline
        checkpoint, in either mode.  With a deadline on the context, the
        wait runs in :data:`DEADLINE_POLL_INTERVAL` slices and raises
        :class:`QueryDeadlineExceeded` once it has expired, so expiry
        (including :meth:`Deadline.cancel` from a client disconnect)
        stops the query within one slice, not when its calls return.

        Raises :class:`PumpShutDown` if the pump under one of the calls
        that finished was shut down, and :class:`ExecutionError` once
        *timeout* seconds pass with
        nothing done — a safety valve so a hung destination that slipped
        past the pump's per-call timeout can never hang a query forever.
        The message names the destinations still outstanding and the
        elapsed time, so a hung call is diagnosable instead of a bare
        timeout.
        """
        deadline = self.deadline
        started = time.monotonic()
        give_up = math.inf if timeout is None else started + timeout

        def done():
            return self.completed(call_ids)

        while True:
            self._check_deadline()
            left = give_up - time.monotonic()
            if deadline is not None:
                left = min(left, DEADLINE_POLL_INTERVAL, max(deadline.remaining(), 0.001))
            finished = self.pump.wait(done, None if left == math.inf else max(left, 0.0))
            if finished:
                for error in map(self._errors.get, finished) if self._errors else ():
                    if isinstance(error, PumpShutDown):
                        raise error  # not a call failure: no on_error degrades it
                return finished
            if time.monotonic() >= give_up:
                raise self._timed_out(call_ids, time.monotonic() - started)

    def _check_deadline(self):
        deadline = self.deadline
        if deadline is not None and deadline.expired:
            reason = getattr(deadline, "reason", None)
            raise QueryDeadlineExceeded(
                "query abandoned while awaiting external calls: {}".format(reason)
                if reason is not None
                else "query deadline exceeded while awaiting external calls",
                deadline=deadline,
            )

    def _timed_out(self, call_ids, elapsed):
        destinations = sorted(
            {str(self._dest_of.get(cid, "unknown")) for cid in call_ids}
        ) or ["unknown"]
        return ExecutionError(
            "timed out after {:.1f}s waiting for {} external call(s) to destination(s) {} "
            "(call ids {}); the destination may be hung".format(
                elapsed, len(call_ids), ", ".join(destinations), sorted(call_ids)
            )
        )

    def take_result(self, call_id):
        """Consume one lease on *call_id*'s rows (raises its error if any).

        The rows are freed once every registrant of a deduplicated call
        has taken them.
        """
        with self._lock:
            if call_id in self._errors:
                self.call_errors += 1
                raise ExecutionError(
                    "external call {} to {!r} failed: {}".format(
                        call_id, self._dest_of.get(call_id, "unknown"), self._errors[call_id]
                    )
                ) from self._errors[call_id]
            if call_id not in self._results:
                raise ExecutionError("result for call {} not available yet".format(call_id))
            rows = self._results[call_id]
            self._leases[call_id] = self._leases.get(call_id, 1) - 1
            if self._leases[call_id] <= 0:
                del self._results[call_id]
                del self._leases[call_id]
                key = self._key_of.pop(call_id, None)
                if key is not None and self._by_key.get(key) == call_id:
                    del self._by_key[key]
            return rows

    def cancel(self, call_ids):
        """Best-effort cancellation (used when a plan closes early).

        The ids also stop anchoring dedup: a cancelled call never
        completes, so an identical call registered later (the plan
        re-opened) must go out afresh, not wait on it.
        """
        for cid in call_ids:
            key = self._key_of.pop(cid, None)
            if key is not None and self._by_key.get(key) == cid:
                del self._by_key[key]
            self.pump.cancel(cid)

    def destination_of(self, call_id):
        """The destination *call_id* was registered against (or None)."""
        with self._lock:
            return self._dest_of.get(call_id)

    def error_of(self, call_id):
        """The raw error for *call_id*, if it failed (else None)."""
        with self._lock:
            return self._errors.get(call_id)

    def stats(self):
        return {"calls_registered": self.calls_registered, "dedup_hits": self.dedup_hits,
                "call_errors": self.call_errors}
