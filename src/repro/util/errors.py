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

    This always indicates a placement bug: the clash rules of ReqSync
    percolation (Section 4.5.2, :mod:`repro.asynciter.rewrite`) are supposed
    to keep value-dependent operators above the ReqSync that fills the
    placeholder in.
    """


class PumpShutDown(ExecutionError):
    """The request pump was shut down while a call waited on it.

    Each abandoned call is told this instead of an outcome, and the
    query waiting on it raises it whatever its ``on_error`` policy: the
    call did not fail, the pump under it stopped.
    """


class QueryDeadlineExceeded(ExecutionError):
    """A query ran out of its end-to-end deadline budget.

    Raised by the one deadline checkpoint below the service, the query
    thread's wait (``AsyncContext.wait_for_any``, in either mode), within
    one poll slice of expiry; the query's calls are then cancelled, so it
    stops holding pump slots.  The request pump never raises it: a call
    shared by several queries answers to none of their deadlines.  The
    service also raises it for a query abandoned while queued.
    ``deadline`` is the originating :class:`repro.serve.deadline.Deadline`
    (or ``None`` for hand-raised instances).
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
