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

from repro.vtables.evscan import ExternalScan


class AEVScan(ExternalScan):
    """Asynchronous counterpart of :class:`~repro.vtables.evscan.EVScan`:
    the same registration, without the wait."""

    def __init__(self, instance, context):
        super().__init__(instance, context)
        #: Number of multi-binding ``open_batch`` invocations (statistics
        #: for the batched-registration tests/benchmarks).
        self.batches_bound = 0

    def open(self, bindings=None):
        resolved, call = self._make_call(bindings)
        call_id = self.context.register(call)
        self._stage([self.instance.placeholder_row(resolved, call_id)])

    def open_batch(self, bindings_list):
        """Bind a whole batch of outer tuples in one registration burst.

        Every binding's external call is registered with the pump before
        any tuple is emitted, so the pump can fill its concurrency limits
        within a single consumer round trip.  Emission order matches the
        binding order exactly (one placeholder tuple per binding).
        """
        pairs = [self._make_call(bindings) for bindings in bindings_list]
        calls = [call for _, call in pairs]
        if len(calls) > 1:
            call_ids = self.context.register_batch(calls)
        else:
            # Degenerate single-binding batch: keep the seed's exact
            # registration schedule (and trace shape).
            call_ids = [self.context.register(call) for call in calls]
        if len(call_ids) > 1:
            self.batches_bound += 1
        self._stage(
            [
                self.instance.placeholder_row(resolved, call_id)
                for (resolved, _), call_id in zip(pairs, call_ids)
            ]
        )

    def label(self):
        return "AEVScan: {}".format(self.instance.describe())
