"""AEVScan: the asynchronous external virtual-table scan.

"As soon as AEVScan registers its call with ReqPump, it returns ... one
tuple T where the [output] attribute contains as a placeholder the call
identifier C."  The dependent join above combines that optimistic tuple
with the outer tuple and keeps iterating — never blocking on the network.

Batched parameterization: ``open_batch(bindings_list)`` accepts a whole
outer batch at once and registers *all* of its external calls with the
request pump in one go (via ``AsyncContext.register_batch``), staging one
placeholder tuple per binding in input order.  ``open(bindings)`` is the
degenerate single-binding case and keeps the seed's exact registration
schedule, so the tuple-at-a-time (``batch_size=1``) path is bit-identical.
"""

from repro.exec.operator import Operator
from repro.util.errors import ExecutionError


class AEVScan(Operator):
    """Asynchronous counterpart of :class:`~repro.vtables.evscan.EVScan`."""

    def __init__(self, instance, context):
        self.instance = instance
        self.context = context
        self.schema = instance.schema
        self.children = ()
        self._rows = None
        self._position = 0
        self.calls_registered = 0
        #: Number of multi-binding ``open_batch`` invocations (statistics
        #: for the batched-registration tests/benchmarks).
        self.batches_bound = 0

    def open(self, bindings=None):
        resolved = self.instance.resolve_bindings(bindings)
        call = self.instance.make_call(resolved)
        call_id = self.context.register(call)
        self.calls_registered += 1
        self._rows = [self.instance.placeholder_row(resolved, call_id)]
        self._position = 0

    def open_batch(self, bindings_list):
        """Bind a whole batch of outer tuples in one registration burst.

        Every binding's external call is registered with the pump before
        any tuple is emitted, so the pump can fill its concurrency limits
        within a single consumer round trip.  Emission order matches the
        binding order exactly (one placeholder tuple per binding).
        """
        resolved_list = [
            self.instance.resolve_bindings(bindings) for bindings in bindings_list
        ]
        calls = [self.instance.make_call(resolved) for resolved in resolved_list]
        register_batch = getattr(self.context, "register_batch", None)
        if len(calls) > 1 and callable(register_batch):
            call_ids = register_batch(calls)
        else:
            # Degenerate single-binding batch: keep the seed's exact
            # registration schedule (and trace shape).
            call_ids = [self.context.register(call) for call in calls]
        self.calls_registered += len(call_ids)
        if len(call_ids) > 1:
            self.batches_bound += 1
        self._rows = [
            self.instance.placeholder_row(resolved, call_id)
            for resolved, call_id in zip(resolved_list, call_ids)
        ]
        self._position = 0

    def next_batch(self, max_rows=None):
        if self._rows is None:
            raise ExecutionError("AEVScan.next_batch() before open()")
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
        return "AEVScan: {}".format(self.instance.describe())
