"""Structured event tracing for the request lifecycle.

The paper's argument is a *latency schedule*: asynchronous iteration wins
because AEVScan registers calls early and the pump overlaps their waits.
Aggregate counters cannot show that; a trace can.  The tracer records a
flat stream of :class:`TraceEvent` records — request-lifecycle instants
(``call.register → call.enqueue → call.issue → (call.retry |
call.timeout | call.breaker_reject)* → call.complete | call.cancel |
call.fail``), operator open/next spans, and ReqSync wait/patch/
proliferate events — all correlated by ``call_id`` and ``query_id``.

Design constraints:

- **Low overhead when enabled**: events go into a bounded ring buffer
  (old events are evicted, a query can never exhaust memory by tracing);
  an emit is one clock read plus one tuple construction plus one
  ``deque.append`` (atomic in CPython, so the hot path takes no lock).
- **Near-zero overhead when disabled**: call sites hold the tracer in a
  local/attribute and guard with ``if tracer is not None``; a disabled
  subsystem simply passes ``None`` around.  :func:`enabled_tracer`
  normalizes the convention.
- **Deterministic under test**: the clock is injectable
  (:class:`~repro.util.timing.VirtualClock`), so two runs of the same
  simulated workload produce identical timestamps.
"""

import itertools
import threading
from collections import deque

from repro.util.timing import resolve_clock

#: Default ring capacity — enough for ~40k events, i.e. thousands of
#: external calls with their full lifecycle, while bounding memory.
DEFAULT_CAPACITY = 65536

#: Event kinds.
INSTANT = "instant"
BEGIN = "begin"
END = "end"

#: Canonical request-lifecycle event names (the taxonomy DESIGN.md §8
#: documents; exporters and tests key off these).
CALL_REGISTER = "call.register"
CALL_DEDUP = "call.dedup"
CALL_ENQUEUE = "call.enqueue"
CALL_ISSUE = "call.issue"
CALL_RETRY = "call.retry"
CALL_TIMEOUT = "call.timeout"
CALL_BREAKER_REJECT = "call.breaker_reject"
CALL_COMPLETE = "call.complete"
CALL_CANCEL = "call.cancel"
CALL_FAIL = "call.fail"

#: ReqSync events.
SYNC_WAIT = "reqsync.wait"
SYNC_PATCH = "reqsync.patch"
SYNC_CANCEL_TUPLE = "reqsync.cancel_tuple"
SYNC_PROLIFERATE = "reqsync.proliferate"
SYNC_DEGRADE = "reqsync.degrade"

#: Query / operator events.
QUERY_SPAN = "query"
OP_OPEN = "op.open"
OP_NEXT = "op.next"
OP_NEXT_BATCH = "op.next_batch"
OP_CLOSE = "op.close"

#: Result-cache events (DESIGN.md §11).  ``cache.hit``/``cache.miss``/
#: ``cache.stale``/``cache.evict`` are emitted by the cache itself (args
#: carry the key; one of hit/stale/miss per lookup); ``cache.coalesce``
#: is emitted by the request pump when a registration joins an identical
#: in-flight call instead of issuing a new one (single-flight).
CACHE_HIT = "cache.hit"
CACHE_MISS = "cache.miss"
CACHE_STALE = "cache.stale"
CACHE_EVICT = "cache.evict"
CACHE_COALESCE = "cache.coalesce"

#: Planner events: one per optimizer-rule application (args carry the
#: rule name and before/after node counts; ``explain(form="rules")``
#: shows the same data without tracing).
PLAN_RULE_FIRED = "plan.rule_fired"

#: Query-service events (DESIGN.md §12): the admission/dispatch
#: lifecycle of one served query — ``submit → admit|shed``, then for
#: admitted queries ``start → finish|cancel``.  Args carry the tenant
#: and (for sheds) the typed rejection reason.
SERVE_SUBMIT = "serve.submit"
SERVE_ADMIT = "serve.admit"
SERVE_SHED = "serve.shed"
SERVE_START = "serve.start"
SERVE_FINISH = "serve.finish"
SERVE_CANCEL = "serve.cancel"

#: SLO accounting: emitted when a served query misses its tenant's
#: latency objective (args carry the objective, the observed e2e, and
#: the terminal outcome the miss was charged to).
SERVE_SLO_VIOLATION = "serve.slo_violation"

#: Sharded search-tier events (DESIGN.md §15): one ``shard.scatter``
#: per fan-out wave (args carry the request kind and shard count), one
#: ``shard.gather`` per merge (ok/failed/degraded tallies), one
#: ``shard.hedge`` per backup probe issued against a straggling shard
#: (args carry the trigger delay and, at settlement, who won), and one
#: ``shard.outage`` per shard whose failure was degraded into a partial
#: gather instead of failing the query.
SHARD_SCATTER = "shard.scatter"
SHARD_GATHER = "shard.gather"
SHARD_HEDGE = "shard.hedge"
SHARD_OUTAGE = "shard.outage"

#: Names that settle a call (used by the analyzers).
CALL_SETTLED = (CALL_COMPLETE, CALL_CANCEL, CALL_FAIL)


class TraceEvent:
    """One traced occurrence.

    ``ts`` is seconds on the tracer's clock; ``kind`` is one of
    ``instant``/``begin``/``end`` (begin/end pairs share ``name`` +
    correlation ids and nest per logical track); ``args`` carries
    name-specific details (attempt number, rows, tuple ids, ...).
    """

    __slots__ = ("ts", "name", "kind", "call_id", "query_id", "destination", "args")

    def __init__(self, ts, name, kind, call_id, query_id, destination, args):
        self.ts = ts
        self.name = name
        self.kind = kind
        self.call_id = call_id
        self.query_id = query_id
        self.destination = destination
        self.args = args

    def as_dict(self):
        payload = {"ts": self.ts, "name": self.name, "kind": self.kind}
        if self.call_id is not None:
            payload["call_id"] = self.call_id
        if self.query_id is not None:
            payload["query_id"] = self.query_id
        if self.destination is not None:
            payload["destination"] = self.destination
        if self.args:
            payload["args"] = dict(self.args)
        return payload

    def __repr__(self):
        extra = []
        if self.call_id is not None:
            extra.append("call={}".format(self.call_id))
        if self.query_id is not None:
            extra.append("query={}".format(self.query_id))
        if self.destination is not None:
            extra.append("dest={}".format(self.destination))
        return "TraceEvent({:.6f} {} {}{})".format(
            self.ts,
            self.name,
            self.kind,
            " " + " ".join(extra) if extra else "",
        )


class Tracer:
    """Ring-buffered structured event recorder."""

    def __init__(self, capacity=DEFAULT_CAPACITY, clock=None):
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.clock = resolve_clock(clock)
        self.capacity = capacity
        self._events = deque(maxlen=capacity)
        self._dropped = 0
        # Query ids are tracer-scoped (call ids belong to the pump).
        self._query_ids = itertools.count(0)
        self._id_lock = threading.Lock()

    # -- emission (hot path) --------------------------------------------------

    def emit(
        self,
        name,
        kind=INSTANT,
        call_id=None,
        query_id=None,
        destination=None,
        ts=None,
        **args,
    ):
        """Record one event; returns its timestamp (for span pairing)."""
        if ts is None:
            ts = self.clock.now()
        if len(self._events) == self.capacity:
            self._dropped += 1  # ring eviction; racy count is fine
        self._events.append(
            TraceEvent(ts, name, kind, call_id, query_id, destination, args)
        )
        return ts

    def span(self, name, call_id=None, query_id=None, destination=None, **args):
        """Context manager emitting a begin/end pair around its body."""
        return _Span(self, name, call_id, query_id, destination, args)

    # -- id allocation --------------------------------------------------------

    def next_query_id(self):
        with self._id_lock:
            return next(self._query_ids)

    # -- inspection -----------------------------------------------------------

    def events(self, name=None, query_id=None):
        """Snapshot of buffered events, optionally filtered."""
        snapshot = list(self._events)
        if name is not None:
            names = (name,) if isinstance(name, str) else tuple(name)
            snapshot = [e for e in snapshot if e.name in names]
        if query_id is not None:
            snapshot = [e for e in snapshot if e.query_id == query_id]
        return snapshot

    def __len__(self):
        return len(self._events)

    @property
    def dropped(self):
        """Events evicted by the ring since the last clear."""
        return self._dropped

    def clear(self):
        self._events.clear()
        self._dropped = 0

    def __repr__(self):
        return "Tracer({} events, capacity {})".format(
            len(self._events), self.capacity
        )


class _Span:
    """Begin/end emitter; usable as a context manager."""

    __slots__ = ("tracer", "name", "call_id", "query_id", "destination", "args")

    def __init__(self, tracer, name, call_id, query_id, destination, args):
        self.tracer = tracer
        self.name = name
        self.call_id = call_id
        self.query_id = query_id
        self.destination = destination
        self.args = args

    def __enter__(self):
        self.tracer.emit(
            self.name,
            kind=BEGIN,
            call_id=self.call_id,
            query_id=self.query_id,
            destination=self.destination,
            **self.args,
        )
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer.emit(
            self.name,
            kind=END,
            call_id=self.call_id,
            query_id=self.query_id,
            destination=self.destination,
            error=repr(exc) if exc is not None else None,
        )
        return False


def enabled_tracer(tracer):
    """Normalize "is tracing on?": a :class:`Tracer` or ``None``.

    Call sites store the result and guard emissions with
    ``if tracer is not None`` — the disabled cost is one attribute load
    and an identity check.
    """
    return tracer if isinstance(tracer, Tracer) else None
