"""EVScan: the blocking external virtual-table scan.

This is the paper's Figure-2 operator: each ``open(bindings)`` issues one
external call *synchronously* — the query processor idles for the whole
round trip — then iterates the materialized result rows.  Asynchronous
iteration replaces it with :class:`~repro.asynciter.aevscan.AEVScan`.

``on_error`` mirrors the :class:`~repro.asynciter.reqsync.ReqSync`
graceful-degradation policy so the sequential baseline degrades exactly
like the asynchronous plan under the same fault schedule: ``"raise"``
propagates the failure (default), ``"drop"`` behaves like a zero-row
result, and ``"null"`` yields one row whose external attributes are NULL.
"""

from repro.exec.operator import Operator
from repro.obs.trace import (
    CALL_COMPLETE,
    CALL_FAIL,
    CALL_ISSUE,
    CALL_REGISTER,
    SYNC_DEGRADE,
)
from repro.util.errors import (
    ExecutionError,
    QueryDeadlineExceeded,
    ReproError,
)
from repro.util.timing import resolve_clock


class EVScan(Operator):
    """Sequential scan of one virtual-table instance.

    Observability: the engine may attach a tracer (plus metrics/query id)
    via :meth:`attach_observability`.  Each ``open`` then emits the same
    *logical* lifecycle the pump emits for the asynchronous path —
    ``call.register → call.issue → call.complete|call.fail`` with
    ``mode="sync"`` — so a sync and an async run of one workload produce
    identical event multisets, just with different schedules.  Sync call
    ids are negative (allocated by the tracer) and can never collide
    with pump call ids.
    """

    def __init__(self, instance, on_error="raise", deadline=None):
        if on_error not in ("raise", "drop", "null"):
            raise ExecutionError(
                "unknown on_error policy {!r}; expected raise/drop/null".format(
                    on_error
                )
            )
        self.instance = instance
        self.on_error = on_error
        #: Per-query budget (duck-typed Deadline): the sequential path's
        #: checkpoint is before each blocking round trip.
        self.deadline = deadline
        self.schema = instance.schema
        self.children = ()
        self._rows = None
        self._position = 0
        self.calls_issued = 0
        self.call_errors = 0
        # Observability handles (attached by the engine; all optional).
        self.tracer = None
        self.metrics = None
        self.query_id = None
        self.clock = None

    def attach_observability(self, tracer=None, metrics=None, query_id=None, clock=None):
        self.tracer = tracer
        self.metrics = metrics
        self.query_id = query_id
        self.clock = clock

    def open(self, bindings=None):
        resolved = self.instance.resolve_bindings(bindings)
        call = self.instance.make_call(resolved)
        if self.deadline is not None and self.deadline.expired:
            # Fail fast before the blocking round trip; the deadline
            # cannot interrupt execute_sync() mid-call, so this is the
            # sequential path's only checkpoint.
            raise QueryDeadlineExceeded(
                "deadline expired before synchronous call to {!r}".format(
                    call.destination
                ),
                deadline=self.deadline,
            )
        self.calls_issued += 1
        tracer = self.tracer
        call_id = None
        clock = None
        issued_at = None
        if tracer is not None:
            clock = resolve_clock(self.clock if self.clock is not None else tracer.clock)
            call_id = tracer.next_sync_call_id()
            issued_at = clock.now()
            # The sequential path has no queue: registration and issue
            # coincide (the query processor blocks for the round trip).
            tracer.emit(
                CALL_REGISTER,
                call_id=call_id,
                query_id=self.query_id,
                destination=call.destination,
                ts=issued_at,
                mode="sync",
                key=str(call.key) if call.key is not None else None,
            )
            tracer.emit(
                CALL_ISSUE,
                call_id=call_id,
                query_id=self.query_id,
                destination=call.destination,
                ts=issued_at,
                in_flight=1,
            )
        try:
            result_rows = call.execute_sync()
        except Exception as exc:  # noqa: BLE001 - degraded per policy below
            self._observe(call, call_id, issued_at, CALL_FAIL, error=type(exc).__name__)
            if self.on_error == "raise":
                if isinstance(exc, ReproError):
                    raise
                raise ExecutionError(
                    "external call to {!r} failed: {}".format(call.destination, exc)
                ) from exc
            self.call_errors += 1
            if tracer is not None:
                tracer.emit(
                    SYNC_DEGRADE,
                    call_id=call_id,
                    query_id=self.query_id,
                    destination=call.destination,
                    policy=self.on_error,
                )
            if self.on_error == "drop":
                result_rows = []
            else:  # null
                result_rows = [
                    {field: None for field in self.instance.result_fields.values()}
                ]
        else:
            self._observe(
                call, call_id, issued_at, CALL_COMPLETE, rows=len(result_rows)
            )
        self._rows = self.instance.complete_rows(resolved, result_rows)
        self._position = 0

    def _observe(self, call, call_id, issued_at, event, **args):
        """Settlement event + service-latency observation (sync path)."""
        tracer = self.tracer
        if tracer is None:
            return
        clock = resolve_clock(self.clock if self.clock is not None else tracer.clock)
        settled_at = clock.now()
        tracer.emit(
            event,
            call_id=call_id,
            query_id=self.query_id,
            destination=call.destination,
            ts=settled_at,
            attempts=1,
        )
        if self.metrics is not None and issued_at is not None:
            elapsed = settled_at - issued_at
            for kind in ("service", "e2e"):
                self.metrics.observe(
                    "request.{}_seconds".format(kind),
                    elapsed,
                    destination=call.destination,
                )

    def next_batch(self, max_rows=None):
        if self._rows is None:
            raise ExecutionError("EVScan.next_batch() before open()")
        limit = max_rows if max_rows is not None else self.batch_size
        start = self._position
        if start >= len(self._rows):
            return None
        rows = self._rows[start : start + limit]
        self._position = start + len(rows)
        return self.make_batch(rows)

    def close(self):
        self._rows = None
        self._position = 0

    def label(self):
        suffix = (
            "" if self.on_error == "raise" else " [on_error={}]".format(self.on_error)
        )
        return "EVScan: {}{}".format(self.instance.describe(), suffix)
