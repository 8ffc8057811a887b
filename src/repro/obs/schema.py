"""Tiny structural validators for the obs layer's two trace shapes.

Not a JSON-Schema engine (no third-party deps): just the handful of
invariants the Trace Event Format requires and our exporter promises
(:func:`validate_chrome_trace`), plus a registry-backed check that raw
:class:`~repro.obs.trace.Tracer` events only use the canonical event
taxonomy (:func:`validate_trace_events`) — enough for CI to reject a
malformed artifact before a human ever opens it in Perfetto.  Both
return a list of problem strings; empty means valid.
"""

from repro.obs import trace as _trace

_REQUIRED_TOP = ("traceEvents",)
_VALID_PHASES = {"X", "B", "E", "i", "I", "M", "C"}
_NUMBER = (int, float)

#: The canonical event-name taxonomy (DESIGN.md §8 + §10).  Every name a
#: Tracer in this codebase emits must be registered here; the validator
#: flags anything else so new subsystems extend the schema consciously.
KNOWN_EVENT_NAMES = frozenset(
    {
        _trace.CALL_REGISTER,
        _trace.CALL_DEDUP,
        _trace.CALL_ENQUEUE,
        _trace.CALL_ISSUE,
        _trace.CALL_RETRY,
        _trace.CALL_TIMEOUT,
        _trace.CALL_BREAKER_REJECT,
        _trace.CALL_COMPLETE,
        _trace.CALL_CANCEL,
        _trace.CALL_FAIL,
        _trace.SYNC_WAIT,
        _trace.SYNC_PATCH,
        _trace.SYNC_CANCEL_TUPLE,
        _trace.SYNC_PROLIFERATE,
        _trace.SYNC_DEGRADE,
        _trace.QUERY_SPAN,
        _trace.OP_OPEN,
        _trace.OP_NEXT,
        _trace.OP_NEXT_BATCH,
        _trace.OP_CLOSE,
        _trace.CACHE_HIT,
        _trace.CACHE_MISS,
        _trace.CACHE_STALE,
        _trace.CACHE_EVICT,
        _trace.CACHE_COALESCE,
        _trace.PLAN_RULE_FIRED,
        _trace.SERVE_SUBMIT,
        _trace.SERVE_ADMIT,
        _trace.SERVE_SHED,
        _trace.SERVE_START,
        _trace.SERVE_FINISH,
        _trace.SERVE_CANCEL,
        _trace.SERVE_SLO_VIOLATION,
        _trace.SHARD_SCATTER,
        _trace.SHARD_GATHER,
        _trace.SHARD_HEDGE,
        _trace.SHARD_OUTAGE,
    }
)

#: Per-event-name required ``args`` keys (beyond the common envelope).
REQUIRED_EVENT_ARGS = {
    _trace.PLAN_RULE_FIRED: ("rule", "before_nodes", "after_nodes"),
}


def validate_trace_events(events):
    """Check raw Tracer events against the registered taxonomy.

    *events* is an iterable of :class:`~repro.obs.trace.TraceEvent` (or
    ``as_dict()`` payloads).  Returns problem strings; empty means valid.
    """
    errors = []
    for index, event in enumerate(events):
        payload = event.as_dict() if hasattr(event, "as_dict") else event
        name = payload.get("name")
        where = "events[{}]".format(index)
        if not isinstance(name, str) or not name:
            errors.append("{}: missing name".format(where))
            continue
        if name not in KNOWN_EVENT_NAMES:
            errors.append(
                "{}: unregistered event name {!r}".format(where, name)
            )
            continue
        required = REQUIRED_EVENT_ARGS.get(name)
        if required:
            args = payload.get("args") or {}
            for key in required:
                if key not in args:
                    errors.append(
                        "{}: {} missing required arg {!r}".format(
                            where, name, key
                        )
                    )
    return errors


def validate_chrome_trace(payload):
    """Validate *payload* (a parsed JSON object); returns error strings."""
    errors = []
    if not isinstance(payload, dict):
        return ["top-level value must be an object, got {}".format(type(payload).__name__)]
    for key in _REQUIRED_TOP:
        if key not in payload:
            errors.append("missing top-level key {!r}".format(key))
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        errors.append("traceEvents must be a list")
        return errors
    if not events:
        errors.append("traceEvents is empty")
    for index, event in enumerate(events):
        where = "traceEvents[{}]".format(index)
        if not isinstance(event, dict):
            errors.append("{}: not an object".format(where))
            continue
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            errors.append("{}: bad or missing ph {!r}".format(where, phase))
            continue
        if not isinstance(event.get("name"), str) or not event.get("name"):
            errors.append("{}: missing name".format(where))
        if "pid" not in event:
            errors.append("{}: missing pid".format(where))
        if phase == "M":
            continue  # metadata events carry no timestamp
        ts = event.get("ts")
        if not isinstance(ts, _NUMBER) or isinstance(ts, bool) or ts < 0:
            errors.append("{}: ts must be a non-negative number".format(where))
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, _NUMBER) or isinstance(dur, bool) or dur < 0:
                errors.append("{}: X event needs non-negative dur".format(where))
        if phase in ("i", "I") and event.get("s") not in (None, "g", "p", "t"):
            errors.append("{}: instant scope must be g/p/t".format(where))
    return errors


def assert_valid_chrome_trace(payload):
    """Raise ``ValueError`` with all problems if *payload* is invalid."""
    errors = validate_chrome_trace(payload)
    if errors:
        raise ValueError(
            "invalid Chrome trace ({} problem(s)):\n  {}".format(
                len(errors), "\n  ".join(errors[:20])
            )
        )
    return payload
