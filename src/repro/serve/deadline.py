"""End-to-end query deadlines (and cooperative cancellation).

A :class:`Deadline` is the per-query time budget the service layer
threads from its API down through :class:`~repro.wsq.engine.WsqEngine`
to the query's :class:`~repro.asynciter.context.AsyncContext`.  It is
checked in one place below the service: the query thread's wait
(:meth:`~repro.asynciter.context.AsyncContext.wait_for_any`, in either
mode), which raises :class:`~repro.util.errors.QueryDeadlineExceeded`
within one poll slice of expiry; the query then cancels its calls.  The
request pump never reads it, so a call shared with another query never
dies of this query's budget.

The same object doubles as the *cancellation token* for client
disconnects: :meth:`cancel` expires the deadline immediately (with a
recorded reason), so every checkpoint that polls the deadline also
observes abandonment — one propagation path for both "too late" and
"nobody is listening".

The consumers duck-type (``remaining()`` / ``expired``),
so the core asynciter layer never imports this module — ``repro.serve``
stays an optional layer above the engine.
"""

import math

from repro.util.timing import resolve_clock

#: Reason recorded by :meth:`Deadline.cancel` when none is given.
CANCELLED = "cancelled"


class Deadline:
    """A monotonic-clock time budget with cooperative cancellation.

    ``seconds=None`` builds an *unbounded* deadline: it never expires on
    its own but can still be cancelled — the shape the query service
    uses for queries submitted without a timeout, so client disconnect
    always has a propagation path.
    """

    __slots__ = ("clock", "_expires_at", "_cancelled", "reason")

    def __init__(self, seconds=None, clock=None):
        if seconds is not None and seconds < 0:
            raise ValueError("deadline seconds cannot be negative")
        self.clock = resolve_clock(clock)
        self._expires_at = (
            None if seconds is None else self.clock.now() + seconds
        )
        self._cancelled = False
        self.reason = None

    # -- state -----------------------------------------------------------------

    def remaining(self):
        """Seconds of budget left: ``inf`` when unbounded, ``0.0`` floor."""
        if self._cancelled:
            return 0.0
        if self._expires_at is None:
            return math.inf
        return max(0.0, self._expires_at - self.clock.now())

    @property
    def expired(self):
        """True once the budget is spent (or the deadline cancelled)."""
        if self._cancelled:
            return True
        return (
            self._expires_at is not None
            and self.clock.now() >= self._expires_at
        )

    @property
    def cancelled(self):
        return self._cancelled

    def cancel(self, reason=CANCELLED):
        """Expire the deadline now (idempotent); records *reason*."""
        if not self._cancelled:
            self._cancelled = True
            self.reason = reason

    def __repr__(self):
        if self._cancelled:
            return "Deadline(cancelled: {})".format(self.reason)
        if self._expires_at is None:
            return "Deadline(unbounded)"
        return "Deadline({:.3f}s remaining)".format(self.remaining())
