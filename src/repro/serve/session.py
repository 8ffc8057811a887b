"""The multi-tenant query service: handles and the waiting threads that run them.

:class:`QueryService` is the long-lived front end: many concurrent
clients multiplexed over **one** shared :class:`~repro.wsq.engine.WsqEngine`
(hence one shared :class:`~repro.asynciter.pump.RequestPump` and one
shared result cache — coalescing and cache hits work *across* tenants).

Robustness is the headline contract:

- every query gets an end-to-end :class:`~repro.serve.deadline.Deadline`
  threaded down to each external call (see DESIGN.md §12);
- admission control (:mod:`repro.serve.admission`) sheds overload with
  typed :class:`~repro.util.errors.AdmissionRejected` instead of
  queueing unboundedly;
- pump slots are shared fairly across tenants
  (:mod:`repro.serve.scheduler`);
- a client disconnect (:meth:`QueryHandle.cancel` on each outstanding
  handle) cancels the query's in-flight work all the way down to coalesced
  flight members, without disturbing other tenants' identical calls.

Thread model: the service starts no thread.  A query runs on a thread
that waits through the service — :meth:`QueryHandle.result`,
:meth:`QueryService.execute` or :meth:`QueryService.close` — and a
waiter may run another tenant's queued query first (see
:meth:`~repro.serve.admission.AdmissionController.next_ticket`), as the
pump's driver runs other queries' calls.  A handle nobody waits on runs
when some thread waits, or at ``close(drain=True)``.  The engine is safe
to share — the pump, the metrics registry and the result cache are
lock-guarded, and the cache replaces its files atomically.
"""

import math

from repro.obs.trace import (
    SERVE_ADMIT,
    SERVE_CANCEL,
    SERVE_FINISH,
    SERVE_SHED,
    SERVE_START,
    SERVE_SUBMIT,
)
from repro.serve.admission import (
    CANCELLED,
    DEFAULT_TENANT,
    AdmissionController,
    SHED_SHUTDOWN,
)
from repro.serve.deadline import Deadline
from repro.util.errors import AdmissionRejected, QueryDeadlineExceeded
from repro.util.timing import resolve_clock

#: Handle statuses.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
EXPIRED = "expired"
SHED = "shed"
ABANDONED = "cancelled"


class QueryHandle:
    """One submitted query: its outcome plus its lifecycle bookkeeping.

    ``result(timeout)`` waits for the rows (raising the query's typed
    failure — :class:`AdmissionRejected`, :class:`QueryDeadlineExceeded`,
    or the execution error), running queries on the calling thread while
    it waits; *timeout* is checked between those runs, and
    :class:`TimeoutError` says it passed.  ``cancel()`` is the
    client-disconnect signal: it cancels the deadline (the shared token
    every checkpoint polls), withdraws the query if it is still queued,
    and otherwise lets the running query observe abandonment at its next
    checkpoint.
    """

    __slots__ = (
        "service",
        "tenant",
        "sql",
        "mode",
        "deadline",
        "submitted_at",
        "dispatched_at",
        "finished_at",
        "status",
        "_result",
        "_error",
        "_done",
    )

    def __init__(self, service, tenant, sql, mode, deadline, submitted_at):
        self.service = service
        self.tenant = tenant
        self.sql = sql
        self.mode = mode
        self.deadline = deadline
        self.submitted_at = submitted_at
        self.dispatched_at = None
        self.finished_at = None
        self.status = QUEUED
        self._result = self._error = None
        self._done = False

    def result(self, timeout=None):
        error = self.exception(timeout)
        if error is not None:
            raise error
        return self._result

    def exception(self, timeout=None):
        if not self._done:
            self.service._wait(self, timeout)
            if not self._done:
                raise TimeoutError(
                    "query still {} after {}s".format(self.status, timeout)
                )
        return self._error

    def done(self):
        return self._done

    def cancel(self, reason="client disconnect"):
        """Abandon the query; returns False if it already settled."""
        if self._done:
            return False
        self.deadline.cancel(reason)
        self.service.admission.withdraw(self.tenant, self)
        return True

    def _finish(self, result, error):
        # The admission controller wakes the waiters: release() after a
        # run, under its lock for a ticket settled unrun.
        self._result, self._error, self._done = result, error, True

    def __repr__(self):
        return "QueryHandle({!r}, tenant={!r}, {})".format(
            self.sql, self.tenant, self.status
        )


class QueryService:
    """Multi-tenant query front end over one shared engine.

    Parameters
    ----------
    engine:
        The shared :class:`~repro.wsq.engine.WsqEngine`.
    tenants:
        Iterable of :class:`TenantPolicy`; unknown tenants get a
        default policy (weight 1, unbounded) on first use.
    max_workers:
        Queries running at once — the service-wide concurrency bound;
        each runs on a thread that waits through the service.
    max_queued:
        Service-wide admission-queue bound (per-tenant caps come from
        the policies).
    """

    def __init__(
        self,
        engine,
        tenants=None,
        max_workers=4,
        max_queued=256,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.engine = engine
        self.clock = resolve_clock(getattr(engine, "clock", None))
        self.admission = AdmissionController(
            policies=tenants,
            max_queued=max_queued,
            max_running=max_workers,
            settle=self._settle_unrun,
            clock=self.clock,
        )
        self.max_workers = max_workers

    # -- lifecycle -------------------------------------------------------------

    def close(self, drain=True):
        """Stop the service.

        ``drain=True`` runs the queued queries on this thread first;
        ``drain=False`` sheds the backlog with ``reason="shutdown"``.
        Either way no new submissions are accepted, and queries already
        running finish on the threads that run them.
        """
        self.admission.close(drain=drain)
        self._wait(None)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- client API ------------------------------------------------------------

    def submit(self, sql, tenant=DEFAULT_TENANT, timeout=None, mode=None):
        """Admit one query; returns its :class:`QueryHandle`.

        Raises :class:`AdmissionRejected` for submit-time sheds (queue
        full, shutdown); later sheds and execution failures surface from
        :meth:`QueryHandle.result` instead.  The query runs when a thread
        waits through the service.  A disconnect is
        :meth:`QueryHandle.cancel` on each handle still outstanding.
        """
        submitted_at = self.clock.now()
        deadline = Deadline(timeout, clock=self.clock)
        handle = QueryHandle(
            self, tenant, sql, mode, deadline, submitted_at
        )
        metrics = self.engine.metrics
        metrics.inc("serve.submitted")
        metrics.inc("serve.submitted", tenant=tenant)
        self._emit(SERVE_SUBMIT, tenant=tenant, timeout=timeout)
        try:
            self.admission.submit(tenant, handle)
        except AdmissionRejected as exc:
            self._settle_shed(handle, exc)
            raise
        return handle

    def execute(self, sql, tenant=DEFAULT_TENANT, timeout=None, mode=None):
        """Submit and block for the result (convenience)."""
        return self.submit(sql, tenant=tenant, timeout=timeout, mode=mode).result()

    # -- the waiting thread ----------------------------------------------------

    def _wait(self, own, timeout=None):
        """Run what the admission controller hands this thread until
        *own* settles (``None``: until nothing is queued) or *timeout*
        seconds pass."""
        give_up = math.inf if timeout is None else self.clock.now() + timeout
        while True:
            picked = self.admission.next_ticket(own, give_up)
            if picked is None:
                return
            self._run_admitted(*picked)

    def _run_admitted(self, tenant, handle):
        metrics = self.engine.metrics
        dispatched_at = self.clock.now()
        handle.dispatched_at = dispatched_at
        queue_wait = dispatched_at - handle.submitted_at
        metrics.inc("serve.admitted")
        metrics.inc("serve.admitted", tenant=tenant)
        metrics.observe("serve.queue_wait_seconds", queue_wait, tenant=tenant)
        self._emit(SERVE_ADMIT, tenant=tenant, queue_wait_s=queue_wait)
        self._emit(SERVE_START, tenant=tenant)
        handle.status = RUNNING
        outcome, result, error = COMPLETED, None, None
        kwargs = {"deadline": handle.deadline}
        if handle.mode is not None:
            kwargs["mode"] = handle.mode
        try:
            result = self.engine.execute(handle.sql, **kwargs)
        except QueryDeadlineExceeded as exc:
            outcome = ABANDONED if handle.deadline.cancelled else EXPIRED
            error = exc
        except Exception as exc:  # noqa: BLE001 - surfaced via the handle
            outcome, error = FAILED, exc
        finished_at = handle.finished_at = self.clock.now()
        handle.status = outcome
        # Stamped first: a caller that wakes on the result reads both.
        handle._finish(result, error)
        service_seconds = finished_at - dispatched_at
        metrics.inc("serve." + outcome)
        metrics.inc("serve." + outcome, tenant=tenant)
        if outcome == COMPLETED:
            metrics.observe(
                "serve.e2e_seconds", finished_at - handle.submitted_at,
                tenant=tenant,
            )
        if outcome == ABANDONED:
            self._emit(SERVE_CANCEL, tenant=tenant, where="running")
        else:
            self._emit(
                SERVE_FINISH,
                tenant=tenant,
                outcome=outcome,
                service_s=service_seconds,
            )
        release = {
            COMPLETED: "completed",
            FAILED: "failed",
            EXPIRED: "failed",
            ABANDONED: "cancelled",
        }[outcome]
        self.admission.release(
            tenant, outcome=release, service_seconds=service_seconds
        )

    # -- settlement helpers ----------------------------------------------------

    def _settle_shed(self, handle, exc):
        handle.status = SHED
        handle.finished_at = self.clock.now()
        metrics = self.engine.metrics
        metrics.inc("serve.shed")
        metrics.inc("serve.shed", tenant=handle.tenant)
        metrics.inc("serve.shed", reason=exc.reason)
        # The fast-fail latency the CI load gate bounds: how long a shed
        # caller waited before learning it should back off.
        metrics.observe(
            "serve.shed_latency_seconds",
            handle.finished_at - handle.submitted_at,
        )
        self._emit(
            SERVE_SHED,
            tenant=handle.tenant,
            reason=exc.reason,
            retry_after=exc.retry_after,
        )
        handle._finish(None, exc)

    def _settle_abandoned(self, handle):
        handle.status = ABANDONED
        handle.finished_at = self.clock.now()
        metrics = self.engine.metrics
        metrics.inc("serve.cancelled")
        metrics.inc("serve.cancelled", tenant=handle.tenant)
        self._emit(SERVE_CANCEL, tenant=handle.tenant, where="queued")
        handle._finish(
            None,
            QueryDeadlineExceeded(
                "query abandoned while queued: {}".format(
                    handle.deadline.reason
                ),
                deadline=handle.deadline,
            ),
        )

    def _settle_unrun(self, tenant, handle, verdict):
        """The admission controller's report of a ticket that left the
        queue unrun (under its lock)."""
        if verdict == CANCELLED:
            self._settle_abandoned(handle)
        elif verdict == SHED_SHUTDOWN:
            self._settle_shed(
                handle,
                AdmissionRejected(
                    "query service shut down before dispatch",
                    tenant=tenant,
                    reason=SHED_SHUTDOWN,
                ),
            )
        else:
            self._settle_shed(handle, self.admission.shed_verdict(tenant, handle))

    # -- observability ---------------------------------------------------------

    def _emit(self, name, **args):
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.emit(name, **args)

    def stats(self):
        """Admission + pump accounting, one dict."""
        return {
            "admission": self.admission.stats(),
            "pump": self.engine.pump.snapshot(),
        }
