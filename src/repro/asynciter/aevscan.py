"""AEVScan: the asynchronous external virtual-table scan.

"As soon as AEVScan registers its call with ReqPump, it returns ... one
tuple T where the [output] attribute contains as a placeholder the call
identifier C."  The dependent join above combines that optimistic tuple
with the outer tuple and keeps iterating — never blocking on the network.

A call whose rows are in the context when ``register`` returns (a cache
hit, or a miss another query's waiting thread already settled) comes back
complete (zero, one or n rows, as :class:`~repro.vtables.evscan.EVScan`
stages them), so nothing above waits for, patches or proliferates it; any
other call, a failed one included, is a placeholder for ReqSync.
"""

from repro.vtables.evscan import ExternalScan


class AEVScan(ExternalScan):
    """Asynchronous counterpart of :class:`~repro.vtables.evscan.EVScan`:
    the same registration, without the wait."""

    def open(self, bindings=None):
        self._stage(self.open_batch([bindings])[0])

    def open_batch(self, bindings_list):
        """Bind a whole batch of outer tuples in one registration burst.

        Every call is registered (one ``AsyncContext.open``) before
        any row is returned, so the pump can fill its concurrency limits
        within one consumer round trip.  Returns one group per binding,
        in input order: the rows of a call answered at registration,
        else the one placeholder row.  ``open(bindings)`` stages the
        group of a batch of one.
        """
        pairs = [self._make_call(bindings) for bindings in bindings_list]
        instance = self.instance
        call_ids, answered = self.context.open([call for _, call in pairs])
        return tuple(
            instance.complete_rows(resolved, answered[call_id])
            if call_id in answered
            else (instance.placeholder_row(resolved, call_id),)
            for (resolved, _), call_id in zip(pairs, call_ids)
        )

    def label(self):
        return "AEVScan: {}".format(self.instance.describe())
