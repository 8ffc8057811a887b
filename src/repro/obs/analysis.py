"""Trace analysis: per-request breakdowns and the overlap factor.

The exporters draw the timeline; this module *measures* it.  Both work
from the same reconstruction: fold the flat event stream into one
:class:`RequestRecord` per call id, with the lifecycle timestamps the
pump emitted (`register`, `issue`, settle) and the derived intervals
(queue wait, service time, end-to-end).

``overlap_factor`` is the trace-derived headline number: the maximum
number of simultaneously in-service requests.  A sequential plan scores
1.0; an asynchronous plan under a concurrency limit *L* should score
``min(L, calls)`` — exactly the claim Table 1's speedups rest on, now
checkable per run instead of inferred from totals.
"""

from repro.obs.trace import (
    CALL_BREAKER_REJECT,
    CALL_CANCEL,
    CALL_COMPLETE,
    CALL_DEDUP,
    CALL_ENQUEUE,
    CALL_FAIL,
    CALL_ISSUE,
    CALL_REGISTER,
    CALL_RETRY,
    CALL_TIMEOUT,
)


class RequestRecord:
    """Reconstructed lifecycle of one external call."""

    __slots__ = (
        "call_id",
        "query_id",
        "destination",
        "registered_at",
        "enqueued_at",
        "issued_at",
        "settled_at",
        "outcome",
        "retries",
        "timeouts",
        "breaker_rejections",
        "dedup_hits",
        "mode",
    )

    def __init__(self, call_id):
        self.call_id = call_id
        self.query_id = None
        self.destination = None
        self.registered_at = None
        self.enqueued_at = None
        self.issued_at = None
        self.settled_at = None
        self.outcome = None  # "complete" | "cancel" | "fail" | None (in flight)
        self.retries = 0
        self.timeouts = 0
        self.breaker_rejections = 0
        self.dedup_hits = 0
        self.mode = None  # "async" | "sync"

    # -- derived intervals ----------------------------------------------------

    @property
    def queue_wait(self):
        """Seconds between asking for a slot (enqueue) and issue."""
        if self.enqueued_at is None or self.issued_at is None:
            return None
        return self.issued_at - self.enqueued_at

    @property
    def service(self):
        """Seconds the request actually spent in flight."""
        if self.issued_at is None or self.settled_at is None:
            return None
        return self.settled_at - self.issued_at

    @property
    def e2e(self):
        """Registration to settlement."""
        if self.registered_at is None or self.settled_at is None:
            return None
        return self.settled_at - self.registered_at

    def __repr__(self):
        return "RequestRecord(call={}, dest={}, outcome={})".format(
            self.call_id, self.destination, self.outcome
        )


_OUTCOMES = {
    CALL_COMPLETE: "complete",
    CALL_CANCEL: "cancel",
    CALL_FAIL: "fail",
}


def request_table(events, query_id=None):
    """Fold *events* into ``call_id -> RequestRecord`` (insertion order).

    With *query_id* given, restricts to that query's calls (events that
    carry no query id, like pump-side settlement, are joined by call id).
    """
    records = {}
    excluded = set()

    def record_for(event):
        call_id = event.call_id
        if call_id is None or call_id in excluded:
            return None
        record = records.get(call_id)
        if record is None:
            if query_id is not None and event.query_id not in (None, query_id):
                excluded.add(call_id)
                return None
            record = RequestRecord(call_id)
            records[call_id] = record
        return record

    for event in events:
        if event.call_id is None:
            continue
        record = record_for(event)
        if record is None:
            continue
        if record.query_id is None and event.query_id is not None:
            record.query_id = event.query_id
        if record.destination is None and event.destination is not None:
            record.destination = event.destination
        name = event.name
        if name == CALL_REGISTER:
            record.registered_at = event.ts
            record.mode = event.args.get("mode", record.mode) or "async"
        elif name == CALL_ENQUEUE:
            record.enqueued_at = event.ts
        elif name == CALL_ISSUE:
            # First issue wins: retries re-use the in-flight slot.
            if record.issued_at is None:
                record.issued_at = event.ts
        elif name == CALL_RETRY:
            record.retries += 1
        elif name == CALL_TIMEOUT:
            record.timeouts += 1
        elif name == CALL_BREAKER_REJECT:
            record.breaker_rejections += 1
        elif name == CALL_DEDUP:
            record.dedup_hits += 1
        elif name in _OUTCOMES:
            record.settled_at = event.ts
            record.outcome = _OUTCOMES[name]
    if query_id is not None:
        records = {
            cid: rec
            for cid, rec in records.items()
            if rec.query_id in (None, query_id)
        }
    return records


def overlap_factor(events, destination=None, query_id=None):
    """Maximum number of simultaneously in-service requests in *events*.

    "In service" spans issue → settle.  Requests that never issued (pure
    breaker rejections, cancelled-while-queued) do not count.  Returns 0
    for a trace with no issued requests.
    """
    deltas = []
    for record in request_table(events, query_id=query_id).values():
        if destination is not None and record.destination != destination:
            continue
        if record.issued_at is None:
            continue
        end = record.settled_at
        deltas.append((record.issued_at, 1))
        if end is not None:
            deltas.append((end, -1))
    if not deltas:
        return 0
    # Settlements before new issues at the same timestamp: conservative.
    deltas.sort(key=lambda pair: (pair[0], pair[1]))
    peak = current = 0
    for _, delta in deltas:
        current += delta
        peak = max(peak, current)
    return peak


def destination_latencies(events, query_id=None):
    """Per-destination latency lists: queue-wait / service / e2e seconds."""
    table = {}
    for record in request_table(events, query_id=query_id).values():
        bucket = table.setdefault(
            record.destination or "unknown",
            {"queue_wait": [], "service": [], "e2e": []},
        )
        for field in ("queue_wait", "service", "e2e"):
            value = getattr(record, field)
            if value is not None:
                bucket[field].append(value)
    return table
