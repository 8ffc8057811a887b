"""End-to-end query deadlines (and cooperative cancellation).

A :class:`Deadline` is the per-query time budget the service layer
threads from its API down through :class:`~repro.wsq.engine.WsqEngine`,
:class:`~repro.asynciter.context.AsyncContext` (where
:class:`~repro.asynciter.reqsync.ReqSync` reads it), and
:meth:`~repro.asynciter.pump.RequestPump.register`: every external
call's remaining timeout is ``min(policy.call_timeout,
deadline.remaining())``, and a query that has already spent its budget
fails fast with :class:`~repro.util.errors.QueryDeadlineExceeded`
instead of occupying a pump slot.

The same object doubles as the *cancellation token* for client
disconnects: :meth:`cancel` expires the deadline immediately (with a
recorded reason), so every checkpoint that polls the deadline also
observes abandonment — one propagation path for both "too late" and
"nobody is listening".

The consumers duck-type (``remaining()`` / ``expired`` / ``budget()``),
so the core asynciter layer never imports this module — ``repro.serve``
stays an optional layer above the engine.
"""

import math

from repro.util.errors import QueryDeadlineExceeded
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

    @classmethod
    def after(cls, seconds, clock=None):
        """A deadline *seconds* from now (``None`` = unbounded)."""
        return cls(seconds, clock=clock)

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

    # -- composition -----------------------------------------------------------

    def budget(self, cap=None):
        """The effective timeout under *cap*: ``min(cap, remaining())``.

        Returns ``None`` (no bound) only when the deadline is unbounded
        *and* no cap is given — the shape ``asyncio.wait_for`` and the
        ReqSync wait loop expect.
        """
        rem = self.remaining()
        if rem == math.inf:
            return cap
        return rem if cap is None else min(cap, rem)

    def raise_if_expired(self, what="query"):
        """Raise :class:`QueryDeadlineExceeded` once the budget is spent."""
        if self.expired:
            raise QueryDeadlineExceeded(
                "{} abandoned: {}".format(what, self.reason)
                if self._cancelled
                else "{} exceeded its deadline".format(what),
                deadline=self,
            )

    def __repr__(self):
        if self._cancelled:
            return "Deadline(cancelled: {})".format(self.reason)
        if self._expires_at is None:
            return "Deadline(unbounded)"
        return "Deadline({:.3f}s remaining)".format(self.remaining())
