"""External virtual-table scans: the shared staging, and the blocking EVScan.

Both scans do the same thing at ``open(bindings)`` — resolve the
bindings, build the :class:`~repro.vtables.base.ExternalCall`, hand it to
the query's :class:`~repro.asynciter.context.AsyncContext` — and differ
only in what they stage for ``next_batch()``:

- :class:`~repro.asynciter.aevscan.AEVScan` stages one placeholder tuple
  (or the rows of a call the cache answered) and returns at once;
- :class:`EVScan` (the paper's Figure-2 operator) *waits* for that one
  call — the query processor idles for the whole round trip — and stages
  the completed rows.  Because ``open()`` returns only after its call
  settled, a plan of ``EVScan`` s never has more than one call
  outstanding, and a ``LIMIT`` above it issues only the calls it consumes.

``on_error`` mirrors the :class:`~repro.asynciter.reqsync.ReqSync`
graceful-degradation policy so the sequential plan degrades exactly like
the asynchronous one under the same fault schedule: ``"raise"``
propagates the failure (default), ``"drop"`` behaves like a zero-row
result, and ``"null"`` yields one row whose external attributes are NULL.
"""

from repro.config import ON_ERROR_POLICIES
from repro.exec.operator import Operator
from repro.obs.trace import SYNC_DEGRADE
from repro.util.errors import ExecutionError, ReproError


class ExternalScan(Operator):
    """What EVScan and AEVScan share: call construction and row staging."""

    def __init__(self, instance, context):
        self.instance = instance
        self.context = context
        self.schema = instance.schema
        self.children = ()
        self._rows = None
        self._position = 0
        self.calls_registered = 0

    def _make_call(self, bindings):
        """``(resolved bindings, call)`` for one ``open``; counts the call."""
        resolved = self.instance.resolve_bindings(bindings)
        self.calls_registered += 1
        return resolved, self.instance.make_call(resolved)

    def _stage(self, rows):
        self._rows = rows
        self._position = 0

    def next_batch(self, max_rows=None):
        if self._rows is None:
            raise ExecutionError(
                "{}.next_batch() before open()".format(type(self).__name__)
            )
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


class EVScan(ExternalScan):
    """Sequential scan of one virtual-table instance.

    *context* is the query's
    :class:`~repro.asynciter.context.AsyncContext` (the engine builds one
    per query in either mode, which is what correlates the pump's
    ``call.register → issue → complete|fail`` events with the query); the
    call runs on that context's pump.
    """

    def __init__(self, instance, context, on_error="raise"):
        if on_error not in ON_ERROR_POLICIES:
            raise ExecutionError(
                "unknown on_error policy {!r}; expected one of {}".format(
                    on_error, ON_ERROR_POLICIES
                )
            )
        super().__init__(instance, context)
        self.on_error = on_error
        self.call_errors = 0

    def open(self, bindings=None):
        resolved, call = self._make_call(bindings)
        call_id, result_rows, error = self.context.run(call)
        if error is not None:
            result_rows = self._degrade(call, call_id, error)
        self._stage(self.instance.complete_rows(resolved, result_rows))

    def _degrade(self, call, call_id, error):
        """Apply ``on_error`` to a failed call; returns its stand-in rows."""
        if self.on_error == "raise":
            if isinstance(error, ReproError):
                raise error
            raise ExecutionError(
                "external call to {!r} failed: {}".format(call.destination, error)
            ) from error
        self.call_errors += 1
        tracer = self.context.tracer
        if tracer is not None:
            tracer.emit(
                SYNC_DEGRADE,
                call_id=call_id,
                query_id=self.context.query_id,
                destination=call.destination,
                policy=self.on_error,
            )
        if self.on_error == "drop":
            return []
        return [{field: None for field in self.instance.result_fields.values()}]

    def label(self):
        suffix = (
            "" if self.on_error == "raise" else " [on_error={}]".format(self.on_error)
        )
        return "EVScan: {}{}".format(self.instance.describe(), suffix)
