"""AEVScan: the asynchronous external virtual-table scan.

"As soon as AEVScan registers its call with ReqPump, it returns ... one
tuple T where the [output] attribute contains as a placeholder the call
identifier C."  The dependent join above combines that optimistic tuple
with the outer tuple and keeps iterating — never blocking on the network.

Batched parameterization: ``open_batch(bindings_list)`` accepts a whole
outer batch at once and registers *all* of its external calls with the
request pump in one ``AsyncContext.register``, staging one placeholder
tuple per binding in input order.  ``open(bindings)`` is a batch of one.
"""

from repro.vtables.evscan import ExternalScan


class AEVScan(ExternalScan):
    """Asynchronous counterpart of :class:`~repro.vtables.evscan.EVScan`:
    the same registration, without the wait."""

    def open(self, bindings=None):
        self.open_batch([bindings])

    def open_batch(self, bindings_list):
        """Bind a whole batch of outer tuples in one registration burst.

        Every binding's external call is registered with the pump before
        any tuple is emitted, so the pump can fill its concurrency limits
        within a single consumer round trip.  Emission order matches the
        binding order exactly (one placeholder tuple per binding).
        """
        pairs = [self._make_call(bindings) for bindings in bindings_list]
        call_ids = self.context.register([call for _, call in pairs])
        self._stage(
            [
                self.instance.placeholder_row(resolved, call_id)
                for (resolved, _), call_id in zip(pairs, call_ids)
            ]
        )

    def label(self):
        return "AEVScan: {}".format(self.instance.describe())
