"""LIMIT."""

from repro.exec.operator import Operator


class Limit(Operator):
    """Emit at most *count* rows from the child.

    Early termination: once the quota is reached the child subtree is
    closed *proactively*, so resources held below (buffer-pool pins,
    pending external-call registrations in an ``AEVScan``) are released
    without waiting for the consumer to finish the plan.  ``close()``
    stays idempotent with respect to that early close, and ``open()``
    re-arms the operator for re-execution.

    The child is pulled with ``min(max_rows, remaining)`` so a batch
    never overshoots the quota.
    """

    def __init__(self, child, count):
        self.child = child
        self.count = count
        self.schema = child.schema
        self.children = (child,)
        self._emitted = 0
        self._child_closed = False

    def open(self, bindings=None):
        self._reject_bindings(bindings)
        self.child.open()
        self._emitted = 0
        self._child_closed = False

    def next_batch(self, max_rows=None):
        limit = max_rows if max_rows is not None else self.batch_size
        remaining = self.count - self._emitted
        if remaining <= 0:
            self._close_child()
            return None
        batch = self.child.next_batch(min(limit, remaining))
        if batch is None:
            return None
        if len(batch) > remaining:  # defensive: child over-produced
            batch = batch.narrow(range(remaining))
        self._emitted += len(batch)
        if self._emitted >= self.count:
            self._close_child()
        return batch

    def _close_child(self):
        if not self._child_closed:
            self._child_closed = True
            self.child.close()

    def close(self):
        self._close_child()

    def label(self):
        return "Limit: {}".format(self.count)
