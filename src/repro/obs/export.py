"""Exporters: Chrome-trace JSON, CLI waterfall, and metrics dumps.

``to_chrome_trace`` emits the Trace Event Format consumed by
``chrome://tracing`` and Perfetto.  Each *destination* gets one row per
concurrent slot — a request span is placed on the lowest slot of its
destination that is free at its issue time — so opening the file shows
the overlap *as geometry*: a sequential run is one long staircase on
slot 0, an asynchronous run under concurrency limit L is an L-deep block
of parallel bars.

``render_waterfall`` is the same picture for a terminal: one line per
request, `·` for queue wait, `█` for service time.

``metrics_json`` / ``write_metrics`` dump a
:class:`~repro.obs.metrics.MetricsRegistry` snapshot.
"""

import json

from repro.obs.analysis import request_table
from repro.obs.trace import (
    BEGIN,
    CACHE_COALESCE,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_STALE,
    END,
    INSTANT,
)

_MICROS = 1e6

#: pid used for all tracks (one process; tracks are logical, not OS threads).
TRACE_PID = 1


def _allocate_slots(records):
    """Greedy slot assignment: call_id -> (destination, slot_index)."""
    assignments = {}
    free_at = {}  # destination -> list of slot end times
    issued = sorted(
        (r for r in records.values() if r.issued_at is not None),
        key=lambda r: (r.issued_at, r.call_id),
    )
    for record in issued:
        destination = record.destination or "unknown"
        ends = free_at.setdefault(destination, [])
        end = record.settled_at if record.settled_at is not None else float("inf")
        for slot, busy_until in enumerate(ends):
            if busy_until <= record.issued_at:
                ends[slot] = end
                assignments[record.call_id] = (destination, slot)
                break
        else:
            ends.append(end)
            assignments[record.call_id] = (destination, len(ends) - 1)
    return assignments


def to_chrome_trace(events, origin=None):
    """Convert tracer *events* to a Chrome Trace Event Format dict.

    *origin* (seconds) rebases timestamps; defaults to the earliest
    event, so traces start at t=0 regardless of the clock's epoch.
    """
    events = list(events)
    if origin is None:
        origin = min((e.ts for e in events), default=0.0)

    def micros(ts):
        return (ts - origin) * _MICROS

    records = request_table(events)
    slots = _allocate_slots(records)

    # Track (tid) layout: destination slots first, then one lane per
    # query for operator/ReqSync spans, then lane 0 ("events") for
    # uncorrelated instants.
    tids = {}
    metadata = []

    def tid_for(track_name):
        tid = tids.get(track_name)
        if tid is None:
            tid = len(tids) + 1
            tids[track_name] = tid
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": {"name": track_name},
                }
            )
            metadata.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        return tid

    trace_events = []

    # 1. One "X" (complete) span per issued request, on its destination slot.
    for call_id, (destination, slot) in sorted(slots.items(), key=lambda kv: str(kv[0])):
        record = records[call_id]
        end_ts = record.settled_at if record.settled_at is not None else record.issued_at
        args = {
            "call_id": call_id,
            "outcome": record.outcome or "in_flight",
            "retries": record.retries,
        }
        if record.query_id is not None:
            args["query_id"] = record.query_id
        if record.queue_wait is not None:
            args["queue_wait_s"] = record.queue_wait
        trace_events.append(
            {
                "name": "{}#{}".format(destination, call_id),
                "cat": "request",
                "ph": "X",
                "ts": micros(record.issued_at),
                "dur": max(0.0, micros(end_ts) - micros(record.issued_at)),
                "pid": TRACE_PID,
                "tid": tid_for("{} slot {}".format(destination, slot)),
                "args": args,
            }
        )

    # 2. Spans (begin/end pairs) and instants from the raw stream.
    open_spans = {}  # (name, call_id, query_id) -> begin event
    for event in events:
        if event.kind == BEGIN:
            open_spans.setdefault((event.name, event.call_id, event.query_id), []).append(
                event
            )
            continue
        track = (
            "query {}".format(event.query_id)
            if event.query_id is not None
            else "events"
        )
        if event.kind == END:
            stack = open_spans.get((event.name, event.call_id, event.query_id))
            if not stack:
                continue
            begin = stack.pop()
            args = dict(begin.args)
            args.update({k: v for k, v in event.args.items() if v is not None})
            if event.call_id is not None:
                args["call_id"] = event.call_id
            trace_events.append(
                {
                    "name": event.name,
                    "cat": "span",
                    "ph": "X",
                    "ts": micros(begin.ts),
                    "dur": max(0.0, micros(event.ts) - micros(begin.ts)),
                    "pid": TRACE_PID,
                    "tid": tid_for(track),
                    "args": args,
                }
            )
        elif event.kind == INSTANT:
            args = dict(event.args)
            if event.call_id is not None:
                args["call_id"] = event.call_id
            if event.destination is not None:
                args["destination"] = event.destination
            trace_events.append(
                {
                    "name": event.name,
                    "cat": "lifecycle",
                    "ph": "i",
                    "s": "g",
                    "ts": micros(event.ts),
                    "pid": TRACE_PID,
                    "tid": tid_for(track),
                    "args": args,
                }
            )

    trace_events.sort(key=lambda e: (e["ts"], e.get("dur", 0.0)))
    return {
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs"},
        "traceEvents": metadata + trace_events,
    }


def write_chrome_trace(path, events, origin=None):
    """Serialize :func:`to_chrome_trace` to *path*; returns the payload."""
    payload = to_chrome_trace(events, origin=origin)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1)
    return payload


# -- waterfall ----------------------------------------------------------------


def render_waterfall(events, width=64, query_id=None, dropped=0):
    """ASCII timeline: one line per request, in registration order.

    ``·`` marks queue wait (registered, awaiting a concurrency slot),
    ``█`` marks in-service time; the summary column gives the millisecond
    split.  Unissued requests (breaker-rejected, cancelled in queue)
    render as ``·`` only, flagged with their outcome.

    *dropped* is the tracer's ring-eviction count
    (:attr:`~repro.obs.trace.Tracer.dropped`); non-zero flags the header
    with an INCOMPLETE warning, since evicted events mean missing rows
    or truncated lifecycles in this picture.
    """
    records = [
        r
        for r in request_table(events, query_id=query_id).values()
        if r.registered_at is not None
    ]
    if not records:
        return "(no traced requests)"
    records.sort(key=lambda r: (r.registered_at, r.call_id))
    t0 = min(r.registered_at for r in records)
    t1 = max(
        max(r.settled_at or r.registered_at, r.issued_at or r.registered_at)
        for r in records
    )
    span = max(t1 - t0, 1e-9)
    scale = (width - 1) / span

    def col(ts):
        return int(round((ts - t0) * scale))

    label_width = max(len(str(r.destination or "?")) for r in records) + 6
    header = "waterfall: {} request(s) over {:.1f} ms ({} per column)".format(
        len(records),
        span * 1e3,
        "{:.2f} ms".format(span * 1e3 / max(width - 1, 1)),
    )
    if dropped:
        header += "  [INCOMPLETE: ring dropped {} event(s)]".format(dropped)
    lines = [header]
    for record in records:
        bar = [" "] * width
        start = col(record.registered_at)
        issue = col(record.issued_at) if record.issued_at is not None else None
        settle = col(record.settled_at) if record.settled_at is not None else None
        if issue is not None:
            for i in range(start, issue):
                bar[i] = "·"
            for i in range(issue, (settle if settle is not None else issue) + 1):
                bar[i] = "█"
        else:
            bar[start] = "·"
        label = "{:>4} {}".format(record.call_id, record.destination or "?")
        detail = []
        if record.queue_wait:
            detail.append("wait {:.1f}ms".format(record.queue_wait * 1e3))
        if record.service is not None:
            detail.append("svc {:.1f}ms".format(record.service * 1e3))
        if record.retries:
            detail.append("retries {}".format(record.retries))
        if record.outcome not in (None, "complete"):
            detail.append(record.outcome)
        lines.append(
            "{:<{lw}} |{}| {}".format(
                label, "".join(bar), ", ".join(detail), lw=label_width
            )
        )
    summary = cache_summary_line(events, query_id=query_id)
    if summary:
        lines.append(summary)
    return "\n".join(lines)


def cache_summary_line(events, query_id=None):
    """One-line result-cache summary for a trace slice (or ``None``).

    Counts ``cache.{hit,stale,miss}`` events (one per lookup) plus
    ``cache.coalesce`` single-flight joins and derives the hit ratio the
    same way :meth:`~repro.web.cache.ResultCache.hit_ratio` does — so the
    waterfall footer, ``profile()`` deltas, and ``detailed_stats()`` all
    tell one story.
    """
    hits = stale = misses = coalesced = 0
    for event in events:
        if query_id is not None and event.query_id != query_id:
            continue
        if event.name == CACHE_HIT:
            hits += 1
        elif event.name == CACHE_STALE:
            stale += 1
        elif event.name == CACHE_MISS:
            misses += 1
        elif event.name == CACHE_COALESCE:
            coalesced += 1
    total = hits + stale + misses
    if not total and not coalesced:
        return None
    ratio = (hits + stale) / total if total else 0.0
    parts = [
        "cache: {} hit(s)".format(hits + stale),
        "{} miss(es)".format(misses),
        "hit-ratio {:.0%}".format(ratio),
    ]
    if stale:
        parts.insert(1, "{} stale".format(stale))
    if coalesced:
        parts.append("{} coalesced".format(coalesced))
    return ", ".join(parts)


# -- metrics ------------------------------------------------------------------


def metrics_json(registry):
    """A registry snapshot as a JSON-serializable dict."""
    return registry.snapshot()


def write_metrics(path, registry):
    payload = metrics_json(registry)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    return payload
