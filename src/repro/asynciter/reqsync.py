"""ReqSync: the request synchronizer operator (paper Sections 4.1, 4.3, 4.4).

ReqSync buffers tuples that carry placeholders and blocks its parent until
their external calls complete.  When a call C returns:

1. **no rows** — every buffered tuple referencing C is *cancelled*,
2. **one row** — the tuple's placeholders for C are filled in,
3. **n > 1 rows** — n-1 *copies* of the tuple are created, each patched
   from one result row; references to *other* pending calls are copied
   too, so a later call patches every copy (Section 4.4's nuance).

Two execution modes:

- full-buffering (paper default): ``open()`` drains the child entirely —
  which is what launches every AEVScan call below — then ``next_batch()``
  emits tuples as their calls complete;
- streaming (``stream=True``; the paper flags this as an optimization
  choice): the child is drained lazily, complete tuples "pass directly
  through", and incomplete ones are emitted as they resolve.

``preserve_order=True`` additionally emits tuples in child order (head-of-
line blocking instead of completion order), which lets the rewriter pull a
ReqSync above order-sensitive operators without breaking their output
order.

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
from repro.util.errors import ExecutionError, QueryDeadlineExceeded

#: With a deadline attached, the blocking wait is sliced this fine so
#: expiry/cancellation is observed within one slice, not one wait_timeout.
DEADLINE_POLL_INTERVAL = 0.05

#: ``on_error`` policies.
ON_ERROR_RAISE = "raise"
ON_ERROR_DROP = "drop"
ON_ERROR_NULL = "null"
ON_ERROR_POLICIES = (ON_ERROR_RAISE, ON_ERROR_DROP, ON_ERROR_NULL)


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
        self,
        child,
        context,
        stream=False,
        preserve_order=False,
        wait_timeout=DEFAULT_WAIT_TIMEOUT,
        on_error=ON_ERROR_RAISE,
    ):
        if on_error not in ON_ERROR_POLICIES:
            raise ExecutionError(
                "unknown on_error policy {!r}; expected one of {}".format(
                    on_error, ON_ERROR_POLICIES
                )
            )
        self.child = child
        self.context = context
        self.stream = stream
        self.preserve_order = preserve_order
        self.wait_timeout = wait_timeout
        self.on_error = on_error
        self.schema = child.schema
        self.children = (child,)
        # Buffering state (created at open()).
        self._buffered = None  # tid -> _Buffered
        self._by_call = None  # call_id -> set(tid)
        self._order = None  # emission order of tids (preserve_order mode)
        self._ready = None  # deque of completed rows (completion-order mode)
        self._completed = None  # tid -> row (preserve_order mode)
        self._next_tid = 0
        self._child_done = False
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
        self._order = deque()
        self._ready = deque()
        self._completed = {}
        self._next_tid = 0
        self._child_done = False
        if not self.stream:
            # Full buffering: drain the child *batch-wise*, which
            # registers every external call below us with the pump in
            # one burst (an AEVScan below a dependent join gets whole
            # batches of bindings at a time).
            while self._pull_child_batch(self.batch_size):
                pass

    def next_batch(self, max_rows=None):
        if self._buffered is None:
            raise ExecutionError("ReqSync.next_batch() before open()")
        limit = max_rows if max_rows is not None else self.batch_size
        out = []
        while len(out) < limit:
            row = self._emit_ready()
            if row is not None:
                out.append(row)
                continue
            if self.stream and not self._child_done:
                self._pull_child_batch(limit)
                continue
            if not self._by_call:
                break
            if out:
                # Rows are ready to flow: emit them rather than blocking
                # on the network to top the batch up.
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
            done = self._wait_for_any(outstanding)
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
                    # An expired deadline can land here first (the pump
                    # cut the call and its error won the race against our
                    # own checkpoint): surface the typed expiry rather
                    # than degrading or wrapping it.
                    deadline = self.context.deadline
                    if deadline is not None:
                        self._raise_if_expired(deadline)
                    self._degrade(call_id)
                else:
                    self._apply_completion(call_id, rows)

    def _wait_for_any(self, outstanding):
        """Wait for a completion, slicing the block under a deadline.

        The query's deadline travels on the context.  Without one this is
        the historical single blocking wait.  With one, this loop is the
        query thread's deadline checkpoint — rows already materialized
        still flow, but blocking on the network past expiry raises
        :class:`QueryDeadlineExceeded` — and the wait runs in
        :data:`DEADLINE_POLL_INTERVAL` slices so expiry (including
        :meth:`Deadline.cancel` from a client disconnect) interrupts the
        query within one slice; the overall ``wait_timeout`` safety valve
        still applies across slices.
        """
        deadline = self.context.deadline
        if deadline is None:
            return self.context.wait_for_any(outstanding, timeout=self.wait_timeout)
        budget = (
            self.wait_timeout if self.wait_timeout is not None else float("inf")
        )
        while True:
            self._raise_if_expired(deadline)
            piece = min(DEADLINE_POLL_INTERVAL, budget)
            remaining = deadline.remaining()
            if remaining < piece:
                piece = max(remaining, 0.001)
            try:
                return self.context.wait_for_any(outstanding, timeout=piece)
            except ExecutionError:
                budget -= piece
                if budget <= 0:
                    raise  # the genuine lost-signal timeout

    def _raise_if_expired(self, deadline):
        if not deadline.expired:
            return
        reason = getattr(deadline, "reason", None)
        raise QueryDeadlineExceeded(
            "query abandoned while awaiting external calls: {}".format(reason)
            if reason is not None
            else "query deadline exceeded while awaiting external calls",
            deadline=deadline,
        )

    def close(self):
        if self._by_call:
            self.context.cancel(list(self._by_call))
        self.child.close()
        self._buffered = None
        self._by_call = None
        self._order = None
        self._ready = None
        self._completed = None

    def label(self):
        modes = []
        if self.stream:
            modes.append("stream")
        if self.preserve_order:
            modes.append("ordered")
        if self.on_error != ON_ERROR_RAISE:
            modes.append("on_error={}".format(self.on_error))
        suffix = " [{}]".format(", ".join(modes)) if modes else ""
        return "ReqSync{}".format(suffix)

    # -- graceful degradation (failed calls) --------------------------------------

    def _degrade(self, call_id):
        """Apply the ``on_error`` policy to a failed call."""
        if self.on_error == ON_ERROR_RAISE:
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
        if self.on_error == ON_ERROR_DROP:
            # A failure behaves like a zero-row result: every tuple
            # referencing the call is cancelled.
            dropped_before = self.tuples_cancelled
            self._apply_completion(call_id, [])
            self.tuples_dropped_on_error += self.tuples_cancelled - dropped_before
        else:  # ON_ERROR_NULL
            # A failure behaves like one all-NULL result row: the
            # tuples complete with NULLs in the external attributes.
            patched_before = self.values_patched
            self._apply_completion(call_id, [_NULL_RESULT_ROW])
            self.values_nulled_on_error += self.values_patched - patched_before

    # -- buffering ------------------------------------------------------------------

    def _pull_child_batch(self, limit):
        """Admit up to *limit* child rows in one batch pull."""
        batch = self.child.next_batch(limit)
        if batch is None:
            self._child_done = True
            return False
        admit = self._admit
        for row in batch:
            admit(row)
        return True

    def _admit(self, row):
        pending = row_pending_calls(row)
        if not pending:
            # Complete tuples pass straight through the synchronizer.
            if self.preserve_order:
                tid = self._allocate_tid()
                self._order.append(tid)
                self._completed[tid] = row
            else:
                self._ready.append(row)
            return
        tid = self._allocate_tid()
        self.tuples_buffered += 1
        self._buffered[tid] = _Buffered(list(row), pending)
        self.max_buffered = max(self.max_buffered, len(self._buffered))
        if self.preserve_order:
            self._order.append(tid)
        for call_id in pending:
            self._by_call.setdefault(call_id, set()).add(tid)

    def _allocate_tid(self):
        tid = self._next_tid
        self._next_tid += 1
        return tid

    # -- emission ----------------------------------------------------------------------

    def _emit_ready(self):
        if not self.preserve_order:
            if self._ready:
                return self._ready.popleft()
            return None
        # Ordered mode: only the head of the queue may be emitted.
        while self._order:
            head = self._order[0]
            if head in self._completed:
                self._order.popleft()
                return self._completed.pop(head)
            if head not in self._buffered:
                # Cancelled tuple: skip its slot.
                self._order.popleft()
                continue
            return None
        return None

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
        # In ordered mode the tid stays in self._order and is skipped at
        # emission time (it is no longer in _buffered or _completed).

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
            if self.preserve_order:
                self._insert_after(original_tid, tid)
        else:
            if self.preserve_order:
                self._insert_after(original_tid, tid)
                self._completed[tid] = tuple(copy.values)
            else:
                self._ready.append(tuple(copy.values))

    def _finish_tuple(self, tid, tuple_state):
        del self._buffered[tid]
        row = tuple(tuple_state.values)
        if self.preserve_order:
            self._completed[tid] = row
        else:
            self._ready.append(row)

    def _insert_after(self, anchor_tid, new_tid):
        """Place a proliferated copy right after its original in the order."""
        try:
            position = self._order.index(anchor_tid)
        except ValueError:
            self._order.append(new_tid)
            return
        self._order.insert(position + 1, new_tid)


def _patch_values(values, call_id, result_row):
    """Fill call_id's placeholders from *result_row*; returns the count."""
    patched = 0
    for i, value in enumerate(values):
        if isinstance(value, Placeholder) and value.call_id == call_id:
            values[i] = result_row[value.field]
            patched += 1
    return patched
