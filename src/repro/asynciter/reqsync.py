"""ReqSync: the request synchronizer operator (paper Sections 4.1, 4.3, 4.4).

ReqSync buffers tuples that carry placeholders and blocks its parent until
their external calls complete.  When a call C returns:

1. **no rows** — every buffered tuple referencing C is *cancelled*,
2. **one row** — the tuple's placeholders for C are filled in,
3. **n > 1 rows** — n-1 *copies* of the tuple are created, each patched
   from one result row; references to *other* pending calls are copied
   too, so a later call patches every copy (Section 4.4's nuance).

ReqSync buffers fully, as the paper chose "for the sake of simplicity"
(Section 4.1): ``open()`` drains the child entirely — which is what
launches every AEVScan call below — then ``next_batch()`` emits tuples in
completion order.  Complete tuples pass straight through.

Graceful degradation (``on_error``)
-----------------------------------

The paper assumed reliable engines; our fault model does not.  When a
call *fails* (exhausted retries, hard error, circuit breaker open), the
``on_error`` policy decides the fate of every tuple referencing it:

- ``"raise"`` (default, the historical behaviour): abort the query with
  an :class:`~repro.util.errors.ExecutionError` naming the destination;
- ``"drop"``: treat the failure like a zero-row result — the tuples are
  *cancelled*, the query completes on the surviving data;
- ``"null"``: treat the failure like a single all-NULL result row — the
  tuples complete with NULLs in the externally supplied attributes
  (outer-join-style degradation).

``call_errors`` / ``tuples_dropped_on_error`` / ``values_nulled_on_error``
expose how much degradation a query absorbed.
"""

from collections import deque

from repro.asynciter.context import DEFAULT_WAIT_TIMEOUT
from repro.config import ON_ERROR_POLICIES
from repro.exec.operator import Operator
from repro.obs.trace import (
    BEGIN,
    END,
    SYNC_CANCEL_TUPLE,
    SYNC_DEGRADE,
    SYNC_PATCH,
    SYNC_PROLIFERATE,
    SYNC_WAIT,
)
from repro.relational.placeholder import Placeholder, row_pending_calls
from repro.util.errors import ExecutionError

class _NullResultRow:
    """A result row whose every field reads as NULL (``None``)."""

    __slots__ = ()

    def __getitem__(self, field):
        return None

    def __repr__(self):
        return "<null result row>"


_NULL_RESULT_ROW = _NullResultRow()


class _Buffered:
    """One incomplete tuple awaiting calls in ``pending``."""

    __slots__ = ("values", "pending")

    def __init__(self, values, pending):
        self.values = values
        self.pending = pending


class ReqSync(Operator):
    """Patches placeholder-carrying tuples as their external calls land."""

    def __init__(
        self, child, context, wait_timeout=DEFAULT_WAIT_TIMEOUT, on_error="raise"
    ):
        if on_error not in ON_ERROR_POLICIES:
            raise ExecutionError(
                "unknown on_error policy {!r}; expected one of {}".format(
                    on_error, ON_ERROR_POLICIES
                )
            )
        self.child = child
        self.context = context
        self.wait_timeout = wait_timeout
        self.on_error = on_error
        self.schema = child.schema
        self.children = (child,)
        # Buffering state (created at open()).
        self._buffered = None  # tid -> _Buffered
        self._by_call = None  # call_id -> set(tid)
        self._ready = None  # deque of completed rows
        self._next_tid = 0
        # Statistics for the benchmarks/tests.
        self.tuples_buffered = 0
        self.tuples_cancelled = 0
        self.tuples_proliferated = 0
        self.values_patched = 0
        #: High-watermark of simultaneously buffered incomplete tuples —
        #: the memory figure the paper's Example 2 placement discussion
        #: trades against concurrency.
        self.max_buffered = 0
        # Degradation statistics (per-query error accounting).
        self.call_errors = 0
        self.tuples_dropped_on_error = 0
        self.values_nulled_on_error = 0

    # -- operator lifecycle ------------------------------------------------------

    def open(self, bindings=None):
        self.child.open(bindings)
        self._buffered = {}
        self._by_call = {}
        self._ready = deque()
        self._next_tid = 0
        # Drain the child *batch-wise*, which registers every external
        # call below us with the pump in one burst (an AEVScan below a
        # dependent join gets whole batches of bindings at a time).
        admit = self._admit
        batch = self.child.next_batch(self.batch_size)
        while batch is not None:
            for row in batch:
                admit(row)
            batch = self.child.next_batch(self.batch_size)

    def next_batch(self, max_rows=None):
        if self._buffered is None:
            raise ExecutionError("ReqSync.next_batch() before open()")
        limit = max_rows if max_rows is not None else self.batch_size
        out = []
        ready = self._ready
        while len(out) < limit:
            if ready:
                out.append(ready.popleft())
                continue
            if out or not self._by_call:
                # Rows ready to flow are emitted rather than blocking on
                # the network to top the batch up.
                break
            self._resolve_some()
        if not out:
            return None
        return self.make_batch(out)

    def _resolve_some(self):
        """Block until ≥1 outstanding call lands, then patch/cancel/copy."""
        outstanding = set(self._by_call)
        tracer = self.context.tracer
        if tracer is not None:
            tracer.emit(
                SYNC_WAIT,
                kind=BEGIN,
                query_id=self.context.query_id,
                outstanding=len(outstanding),
                buffered=len(self._buffered),
            )
        try:
            done = self.context.wait_for_any(outstanding, timeout=self.wait_timeout)
        finally:
            if tracer is not None:
                tracer.emit(
                    SYNC_WAIT, kind=END, query_id=self.context.query_id
                )
        for call_id in done:
            if call_id in self._by_call:
                try:
                    rows = self.context.take_result(call_id)
                except ExecutionError:
                    self._degrade(call_id)
                else:
                    self._apply_completion(call_id, rows)

    def close(self):
        if self._by_call:
            self.context.cancel(list(self._by_call))
        self.child.close()
        self._buffered = None
        self._by_call = None
        self._ready = None

    def label(self):
        if self.on_error != "raise":
            return "ReqSync [on_error={}]".format(self.on_error)
        return "ReqSync"

    # -- graceful degradation (failed calls) --------------------------------------

    def _degrade(self, call_id):
        """Apply the ``on_error`` policy to a failed call."""
        if self.on_error == "raise":
            raise  # re-raise the ExecutionError from take_result
        self.call_errors += 1
        tracer = self.context.tracer
        if tracer is not None:
            tracer.emit(
                SYNC_DEGRADE,
                call_id=call_id,
                query_id=self.context.query_id,
                destination=self.context.destination_of(call_id),
                policy=self.on_error,
            )
        if self.on_error == "drop":
            # A failure behaves like a zero-row result: every tuple
            # referencing the call is cancelled.
            dropped_before = self.tuples_cancelled
            self._apply_completion(call_id, [])
            self.tuples_dropped_on_error += self.tuples_cancelled - dropped_before
        else:  # "null"
            # A failure behaves like one all-NULL result row: the
            # tuples complete with NULLs in the external attributes.
            patched_before = self.values_patched
            self._apply_completion(call_id, [_NULL_RESULT_ROW])
            self.values_nulled_on_error += self.values_patched - patched_before

    # -- buffering ------------------------------------------------------------------

    def _admit(self, row):
        pending = row_pending_calls(row)
        if not pending:
            # Complete tuples pass straight through the synchronizer.
            self._ready.append(row)
            return
        tid = self._allocate_tid()
        self.tuples_buffered += 1
        self._buffered[tid] = _Buffered(list(row), pending)
        self.max_buffered = max(self.max_buffered, len(self._buffered))
        for call_id in pending:
            self._by_call.setdefault(call_id, set()).add(tid)

    def _allocate_tid(self):
        tid = self._next_tid
        self._next_tid += 1
        return tid

    # -- patching (Sections 4.3 / 4.4) ------------------------------------------------------

    def _apply_completion(self, call_id, result_rows):
        tids = self._by_call.pop(call_id, set())
        tracer = self.context.tracer
        for tid in sorted(tids):
            tuple_state = self._buffered.get(tid)
            if tuple_state is None:
                continue  # cancelled by an earlier zero-row call
            if not result_rows:
                self._cancel_tuple(tid, tuple_state, call_id)
                continue
            tuple_state.pending.discard(call_id)
            # Extra result rows proliferate copies (case 3); references to
            # other pending calls are copied with them.
            for extra in result_rows[1:]:
                copy = _Buffered(list(tuple_state.values), set(tuple_state.pending))
                self.values_patched += _patch_values(copy.values, call_id, extra)
                self.tuples_proliferated += 1
                self._register_copy(tid, copy, call_id)
            patched = _patch_values(tuple_state.values, call_id, result_rows[0])
            self.values_patched += patched
            if tracer is not None:
                tracer.emit(
                    SYNC_PATCH,
                    call_id=call_id,
                    query_id=self.context.query_id,
                    tid=tid,
                    patched=patched,
                    rows=len(result_rows),
                    still_pending=len(tuple_state.pending),
                )
            if not tuple_state.pending:
                self._finish_tuple(tid, tuple_state)

    def _cancel_tuple(self, tid, tuple_state, call_id):
        self.tuples_cancelled += 1
        tracer = self.context.tracer
        if tracer is not None:
            tracer.emit(
                SYNC_CANCEL_TUPLE,
                call_id=call_id,
                query_id=self.context.query_id,
                tid=tid,
                other_pending=sorted(
                    c for c in tuple_state.pending if c != call_id
                ),
            )
        del self._buffered[tid]
        for other in tuple_state.pending:
            if other != call_id and other in self._by_call:
                self._by_call[other].discard(tid)

    def _register_copy(self, original_tid, copy, call_id=None):
        tid = self._allocate_tid()
        self.tuples_buffered += 1
        tracer = self.context.tracer
        if tracer is not None:
            # The trace shows the child row inheriting its parent's call
            # id (the completing call) plus every *other* pending call id
            # copied with it — Section 4.4's proliferation nuance.
            tracer.emit(
                SYNC_PROLIFERATE,
                call_id=call_id,
                query_id=self.context.query_id,
                parent_tid=original_tid,
                child_tid=tid,
                inherited_calls=sorted(copy.pending),
            )
        if copy.pending:
            self._buffered[tid] = copy
            for other in copy.pending:
                self._by_call.setdefault(other, set()).add(tid)
        else:
            self._ready.append(tuple(copy.values))

    def _finish_tuple(self, tid, tuple_state):
        del self._buffered[tid]
        self._ready.append(tuple(tuple_state.values))


def _patch_values(values, call_id, result_row):
    """Fill call_id's placeholders from *result_row*; returns the count."""
    patched = 0
    for i, value in enumerate(values):
        if isinstance(value, Placeholder) and value.call_id == call_id:
            values[i] = result_row[value.field]
            patched += 1
    return patched
