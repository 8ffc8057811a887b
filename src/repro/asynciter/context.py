"""AsyncContext: the per-query ReqPumpHash plus consumer signalling.

The paper stores each completed call's data "in a hash table ReqPumpHash,
keyed on C", and has ReqPump signal the consuming ReqSync.  AsyncContext
is that pair: a results dict filled by the pump (from its thread, or on the
registering thread for a call the result cache answers), and a condition
variable the query thread waits on.  One context serves a whole query, so
a plan with several ReqSync operators (Figure 7(b)) shares it.

In-flight deduplication (``dedup=True``, the default) extends this with
the call-minimization idea of Chaudhuri/Dayal/Yan [CDY95]: when the same
query registers two identical external calls — e.g. the paper's Figure 7
plan sends |R| identical searches per Sig — the second registration
reuses the first call id instead of hitting the network again.  A result
cache cannot catch these (the first call has not completed when the
duplicates arrive); deduplication here is what removes them.  Results are
lease-counted so every registrant can consume them.
"""

import threading

from repro.obs.trace import CALL_DEDUP
from repro.util.errors import ExecutionError
from repro.util.timing import resolve_clock

#: Safety valve so a lost completion signal cannot hang a query forever.
DEFAULT_WAIT_TIMEOUT = 60.0


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
        #: Per-query time budget (duck-typed Deadline), forwarded with
        #: every registration so the pump can fail expired calls fast.
        self.deadline = deadline
        self.clock = resolve_clock(getattr(pump, "clock", None))
        self._cond = threading.Condition()
        self._waiting = 0  # consumers inside wait_for_any (under _cond)
        self._results = {}  # call_id -> list of result-field dicts
        self._errors = {}  # call_id -> Exception
        self._by_key = {}  # call.key -> call_id (for dedup)
        self._key_of = {}  # call_id -> call.key
        self._leases = {}  # call_id -> outstanding take_result count
        self._dest_of = {}  # call_id -> destination (for diagnostics)
        self.dedup_hits = 0
        self.calls_registered = 0
        self.call_errors = 0  # errors observed by take_result

    # -- producer side (pump thread) --------------------------------------------

    def register(self, call, mode="async"):
        """Launch *call* through the pump (or reuse an identical in-flight
        call when deduplication applies); returns the call id."""
        if self.dedup and call.key is not None:
            existing = self._by_key.get(call.key)
            if existing is not None:
                self._reuse_inflight(existing, call)
                return existing
        call_id = self.pump.register(
            call,
            self._on_complete,
            query_id=self.query_id,
            deadline=self.deadline,
            mode=mode,
        )
        self.calls_registered += 1
        with self._cond:
            self._leases[call_id] = 1
            self._dest_of[call_id] = call.destination
        if self.dedup and call.key is not None:
            self._by_key[call.key] = call_id
            self._key_of[call_id] = call.key
        return call_id

    def run(self, call):
        """Register *call* and wait for it alone: ``(call_id, rows, error)``.

        The blocking form of :meth:`register`.  A query that reaches the
        pump only through here has one call outstanding at a time — the
        paper's sequential schedule, on the same path as the concurrent
        one.  The error comes back raw (not wrapped as by
        :meth:`take_result`), so the caller chooses between raising it
        and degrading.
        """
        call_id = self.register(call, mode="sync")
        try:
            self.wait_for_any((call_id,), timeout=DEFAULT_WAIT_TIMEOUT)
        except BaseException:
            self.pump.cancel(call_id)
            raise
        error = self.error_of(call_id)
        if error is not None:
            return call_id, None, error
        return call_id, self.take_result(call_id), None

    def register_batch(self, calls):
        """Register many calls in one go; returns their call ids in order.

        Deduplication applies exactly as in :meth:`register`, both
        against already in-flight calls and *within* the batch (the
        paper's Figure 7 workload sends many identical searches per
        batch); only novel calls reach the pump, in one burst via
        ``pump.register_batch``.
        """
        calls = list(calls)
        if not calls:
            return []
        call_ids = [None] * len(calls)
        fresh = []  # (position, call) pairs that must reach the pump
        dup_of = []  # (position, anchor position) intra-batch duplicates
        batch_anchor = {}  # call.key -> position of first fresh call
        for position, call in enumerate(calls):
            key = call.key
            if self.dedup and key is not None:
                existing = self._by_key.get(key)
                if existing is not None:
                    self._reuse_inflight(existing, call)
                    call_ids[position] = existing
                    continue
                anchor = batch_anchor.get(key)
                if anchor is not None:
                    dup_of.append((position, anchor))
                    continue
                batch_anchor[key] = position
            fresh.append((position, call))
        if fresh:
            new_ids = self.pump.register_batch(
                [call for _, call in fresh],
                self._on_complete,
                query_id=self.query_id,
                deadline=self.deadline,
            )
            self.calls_registered += len(new_ids)
            with self._cond:
                for (position, call), call_id in zip(fresh, new_ids):
                    call_ids[position] = call_id
                    self._leases[call_id] = 1
                    self._dest_of[call_id] = call.destination
            if self.dedup:
                for (position, call), call_id in zip(fresh, new_ids):
                    if call.key is not None:
                        self._by_key[call.key] = call_id
                        self._key_of[call_id] = call.key
        for position, anchor in dup_of:
            call_id = call_ids[anchor]
            self._reuse_inflight(call_id, calls[position])
            call_ids[position] = call_id
        return call_ids

    def _reuse_inflight(self, call_id, call):
        """Account one dedup hit: a new lease on an in-flight call."""
        with self._cond:
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
        """Store one outcome; wake the consumer only if it is waiting.

        Runs on the pump thread — or, for a call the pump answered from
        the cache at registration, on the registering thread itself,
        before ``register`` has returned.
        """
        with self._cond:
            if error is not None:
                self._errors[call_id] = error
            else:
                self._results[call_id] = rows
            if self._waiting:
                self._cond.notify_all()

    # -- consumer side (query thread) ----------------------------------------------

    def completed(self, call_ids):
        """Subset of *call_ids* whose results (or errors) have arrived."""
        with self._cond:
            return {
                cid
                for cid in call_ids
                if cid in self._results or cid in self._errors
            }

    def wait_for_any(self, call_ids, timeout=None):
        """Block until at least one of *call_ids* completes; return those.

        Raises :class:`ExecutionError` on timeout — a safety valve so a
        lost signal (or a hung destination that slipped past the pump's
        per-call timeout) can never hang a query forever.  The message
        names the destinations still outstanding and the elapsed time,
        so a hung call is diagnosable instead of a bare timeout.
        """
        started = self.clock.now()
        with self._cond:
            while True:
                done = {
                    cid
                    for cid in call_ids
                    if cid in self._results or cid in self._errors
                }
                if done:
                    return done
                self._waiting += 1
                try:
                    signalled = self._cond.wait(timeout=timeout)
                finally:
                    self._waiting -= 1
                if not signalled:
                    elapsed = self.clock.now() - started
                    destinations = sorted(
                        {
                            str(self._dest_of.get(cid, "unknown"))
                            for cid in call_ids
                        }
                    ) or ["unknown"]
                    raise ExecutionError(
                        "timed out after {:.1f}s waiting for {} external "
                        "call(s) to destination(s) {} (call ids {}); the "
                        "destination may be hung or the pump torn down".format(
                            elapsed,
                            len(call_ids),
                            ", ".join(destinations),
                            sorted(call_ids),
                        )
                    )

    def take_result(self, call_id):
        """Consume one lease on *call_id*'s rows (raises its error if any).

        The rows are freed once every registrant of a deduplicated call
        has taken them.
        """
        with self._cond:
            if call_id in self._errors:
                self.call_errors += 1
                raise ExecutionError(
                    "external call {} to {!r} failed: {}".format(
                        call_id,
                        self._dest_of.get(call_id, "unknown"),
                        self._errors[call_id],
                    )
                ) from self._errors[call_id]
            if call_id not in self._results:
                raise ExecutionError(
                    "result for call {} not available yet".format(call_id)
                )
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
        with self._cond:
            return self._dest_of.get(call_id)

    def error_of(self, call_id):
        """The raw error for *call_id*, if it failed (else None)."""
        with self._cond:
            return self._errors.get(call_id)

    def stats(self):
        return {
            "calls_registered": self.calls_registered,
            "dedup_hits": self.dedup_hits,
            "call_errors": self.call_errors,
        }
