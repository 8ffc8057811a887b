"""Exception hierarchy for the WSQ/DSQ reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one base class at the API boundary.  Sub-hierarchies mirror
the architectural layers: storage, SQL front end, planning, execution, and
the virtual-table / asynchronous-iteration machinery.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class StorageError(ReproError):
    """Base class for storage-engine failures (pages, files, buffer pool)."""


class BufferPoolError(StorageError):
    """Buffer pool misuse: no evictable frame, unpinning an unpinned page."""


class CatalogError(StorageError):
    """Unknown or duplicate table/column, schema mismatch on load."""


class SqlSyntaxError(ReproError):
    """Lexical or grammatical error in a SQL string.

    Carries the offending position so REPL users get a caret diagnostic.
    """

    def __init__(self, message, position=None, text=None):
        super().__init__(message)
        self.position = position
        self.text = text

    def diagnostic(self):
        """Return a multi-line message with a caret under the error site."""
        if self.position is None or self.text is None:
            return str(self)
        line_start = self.text.rfind("\n", 0, self.position) + 1
        line_end = self.text.find("\n", self.position)
        if line_end == -1:
            line_end = len(self.text)
        caret = " " * (self.position - line_start) + "^"
        return "{}\n{}\n{}".format(self, self.text[line_start:line_end], caret)


class PlanError(ReproError):
    """Planner failure: unresolvable name, ambiguous column, bad plan shape."""


class ConfigError(PlanError):
    """An engine knob, or the environment variable behind it, is invalid.

    Raised when the configuration is built — never at the first query —
    and the message names the :class:`~repro.config.EngineConfig` field
    or the ``REPRO_*`` variable at fault.
    """


class BindingError(PlanError):
    """A virtual table's input columns cannot be bound.

    Raised when ``SearchExp``/``T1..Tn`` of a virtual table are not supplied
    by constants or by tables earlier in the join order (the paper's
    Section 3.2 "Informix problem").
    """


class TypeMismatchError(PlanError):
    """An expression combines incompatible value types."""


class ExecutionError(ReproError):
    """Runtime failure inside a query-plan iterator."""


class PlaceholderError(ExecutionError):
    """An operator touched a placeholder value it must not depend on.

    This always indicates a plan-rewrite bug: the ReqSync percolation rules
    (Section 4.5.2) are supposed to keep value-dependent operators above the
    ReqSync that fills the placeholder in.
    """


class QueryDeadlineExceeded(ExecutionError):
    """A query ran out of its end-to-end deadline budget.

    Raised at every deadline checkpoint — registration with the request
    pump, the pre-issue check inside a concurrency slot, the per-attempt
    ``asyncio.wait_for`` bound, and the ReqSync wait loop — so an
    expired query fails *fast* instead of burning pump slots or network
    round trips on an answer nobody is waiting for.  ``deadline`` is the
    originating :class:`repro.serve.deadline.Deadline` (or ``None`` for
    hand-raised instances).
    """

    def __init__(self, message, deadline=None):
        super().__init__(message)
        self.deadline = deadline


class AdmissionRejected(ReproError):
    """The query service refused to run a query (load shedding).

    Typed so callers can distinguish overload from failure and back off:
    ``tenant`` names the budget that was exhausted, ``reason`` is one of
    ``"queue_full"`` / ``"deadline"`` / ``"shutdown"``, and
    ``retry_after`` is the service's estimate (seconds) of when a retry
    has a chance of being admitted.
    """

    def __init__(self, message, tenant=None, reason=None, retry_after=None):
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason
        self.retry_after = retry_after


class VirtualTableError(ReproError):
    """A virtual-table implementation rejected its inputs."""


class WebRequestError(ReproError):
    """Base class for simulated network failures of an external request.

    The paper assumed reliable engines; the resilience layer
    (:mod:`repro.web.faults`, :mod:`repro.asynciter.resilience`)
    deliberately departs from that and models the failures a real DB-IR
    federation sees.  The split below drives retry classification.
    """


class TransientWebError(WebRequestError):
    """A failure worth retrying: 5xx, connection reset, dropped packet."""


class HardWebError(WebRequestError):
    """A failure retries cannot fix: 4xx, malformed expression, auth."""


class EngineOutageError(TransientWebError):
    """The whole destination is down (connection refused / no route)."""


class RequestTimeoutError(TransientWebError):
    """A request exceeded its per-call timeout (a hung connection)."""


class BreakerOpenError(WebRequestError):
    """The circuit breaker for a destination is open: failing fast."""


class CachedFailureError(WebRequestError):
    """A negatively-cached failure was replayed without a network round trip.

    Raised when the result cache holds a recent failure record for a
    request (see :class:`~repro.web.cache.CachePolicy` ``negative_ttl``):
    repeating a request that just failed within the negative-TTL window
    yields the same failure immediately instead of re-issuing the call.
    Deliberately *not* a :class:`TransientWebError` so retry policies
    never spin on a cached outcome.
    """
