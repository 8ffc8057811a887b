"""The multi-tenant query service: sessions, handles, worker pool.

:class:`QueryService` is the long-lived front end the ROADMAP's
"millions of users" north star asks for: many concurrent sessions
multiplexed over **one** shared :class:`~repro.wsq.engine.WsqEngine`
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
- a client disconnect (:meth:`Session.close` / :meth:`QueryHandle.cancel`)
  cancels the query's in-flight work all the way down to coalesced
  flight members, without disturbing other tenants' identical calls.

Thread model: ``max_workers`` daemon threads execute admitted queries
against the shared engine.  The engine is safe to share — the pump,
the metrics registry and the result cache are lock-guarded, and the
cache replaces its files atomically.
"""

import concurrent.futures
import threading
import time

from repro.obs.trace import (
    SERVE_ADMIT,
    SERVE_CANCEL,
    SERVE_FINISH,
    SERVE_SHED,
    SERVE_START,
    SERVE_SUBMIT,
)
from repro.serve.admission import (
    ADMITTED,
    CANCELLED,
    DEFAULT_TENANT,
    AdmissionController,
    SHED_SHUTDOWN,
)
from repro.serve.deadline import Deadline
from repro.serve.slo import record_settlement, slo_report
from repro.util.errors import AdmissionRejected, QueryDeadlineExceeded
from repro.util.timing import resolve_clock

#: How often the reaper sweeps the admission queue for expired/abandoned
#: tickets.  This bounds a shed query's fast-fail latency: without the
#: sweep, a dead ticket would wait for its fair-schedule turn, so its
#: rejection would take as long as the backlog drain under overload.
REAP_INTERVAL = 0.05

#: Handle statuses.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
EXPIRED = "expired"
SHED = "shed"
ABANDONED = "cancelled"


class QueryHandle:
    """One submitted query: a future plus its lifecycle bookkeeping.

    ``result(timeout)`` blocks for the rows (raising the query's typed
    failure — :class:`AdmissionRejected`, :class:`QueryDeadlineExceeded`,
    or the execution error).  ``cancel()`` is the client-disconnect
    signal: it cancels the deadline (the shared token every checkpoint
    polls), withdraws the query if it is still queued, and otherwise
    lets the running query observe abandonment at its next checkpoint.
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
        "_future",
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
        self._future = concurrent.futures.Future()

    def result(self, timeout=None):
        return self._future.result(timeout)

    def exception(self, timeout=None):
        return self._future.exception(timeout)

    def done(self):
        return self._future.done()

    def cancel(self, reason="client disconnect"):
        """Abandon the query; returns False if it already settled."""
        if self._future.done():
            return False
        self.deadline.cancel(reason)
        self.service._abandon(self)
        return True

    def _settle_result(self, value):
        try:
            self._future.set_result(value)
        except concurrent.futures.InvalidStateError:
            pass

    def _settle_exception(self, exc):
        try:
            self._future.set_exception(exc)
        except concurrent.futures.InvalidStateError:
            pass

    def __repr__(self):
        return "QueryHandle({!r}, tenant={!r}, {})".format(
            self.sql, self.tenant, self.status
        )


class Session:
    """One client's connection to the service.

    Closing the session is the disconnect event: every outstanding
    handle is cancelled, which propagates down to the pump (coalesced
    flight members detach; sole members cancel the physical call).
    """

    def __init__(self, service, tenant):
        self.service = service
        self.tenant = tenant
        self._lock = threading.Lock()
        self._handles = []
        self._closed = False

    def submit(self, sql, timeout=None, mode=None):
        """Submit asynchronously; returns a :class:`QueryHandle`.

        Raises :class:`AdmissionRejected` when shed at submit time
        (queue full / shutting down).
        """
        with self._lock:
            if self._closed:
                raise AdmissionRejected(
                    "session is closed", tenant=self.tenant, reason=SHED_SHUTDOWN
                )
        handle = self.service.submit(
            sql, tenant=self.tenant, timeout=timeout, mode=mode
        )
        with self._lock:
            self._handles.append(handle)
        return handle

    def execute(self, sql, timeout=None, mode=None):
        """Submit and block for the result (convenience)."""
        return self.submit(sql, timeout=timeout, mode=mode).result()

    def outstanding(self):
        with self._lock:
            return [h for h in self._handles if not h.done()]

    def close(self):
        """Disconnect: cancel everything still queued or running."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
        for handle in handles:
            if not handle.done():
                handle.cancel(reason="session closed")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


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
        Worker threads executing admitted queries — the service-wide
        concurrency ceiling.
    max_queued:
        Service-wide admission-queue bound (per-tenant caps come from
        the policies).
    default_timeout:
        Deadline (seconds) applied to queries submitted without one
        (``None`` = unbounded, still cancellable).
    calibration:
        Opt-in :class:`~repro.obs.calibration.CalibrationPolicy`.  When
        set, the reaper periodically rebuilds a
        :class:`~repro.obs.calibration.CalibrationProfile` from the
        engine's live tracer/metrics and re-prices the shared cost
        model — gated by the policy's sample floor and incompleteness
        rule (see :meth:`maybe_recalibrate`).
    """

    def __init__(
        self,
        engine,
        tenants=None,
        max_workers=4,
        max_queued=256,
        default_timeout=None,
        name="wsq-serve",
        calibration=None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.engine = engine
        self.name = name
        self.default_timeout = default_timeout
        self.clock = resolve_clock(getattr(engine, "clock", None))
        self.admission = AdmissionController(
            policies=tenants, max_queued=max_queued, clock=self.clock
        )
        self.max_workers = max_workers
        self.calibration = calibration
        self.last_profile = None
        self._last_calibration_attempt = None
        self._lock = threading.Lock()
        self._workers = []
        self._started = False
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def _ensure_workers(self):
        with self._lock:
            if self._started:
                return
            self._started = True
            for index in range(self.max_workers):
                worker = threading.Thread(
                    target=self._worker_loop,
                    name="{}-worker-{}".format(self.name, index),
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
            reaper = threading.Thread(
                target=self._reaper_loop,
                name="{}-reaper".format(self.name),
                daemon=True,
            )
            reaper.start()
            self._workers.append(reaper)

    def close(self, drain=True, timeout=5.0):
        """Stop the service.

        ``drain=True`` lets queued queries run to completion first;
        ``drain=False`` sheds the backlog with ``reason="shutdown"``.
        Either way no new submissions are accepted.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        backlog = self.admission.close(drain=drain)
        for tenant, handle in backlog:
            self._settle_shed(
                handle,
                AdmissionRejected(
                    "query service shut down before dispatch",
                    tenant=tenant,
                    reason=SHED_SHUTDOWN,
                ),
            )
        for worker in self._workers:
            worker.join(timeout=timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- client API ------------------------------------------------------------

    def session(self, tenant=DEFAULT_TENANT):
        return Session(self, tenant)

    def submit(self, sql, tenant=DEFAULT_TENANT, timeout=None, mode=None):
        """Admit one query; returns its :class:`QueryHandle`.

        Raises :class:`AdmissionRejected` for submit-time sheds (queue
        full, shutdown); dispatch-time sheds and execution failures
        surface from :meth:`QueryHandle.result` instead.
        """
        self._ensure_workers()
        if timeout is None:
            timeout = self.default_timeout
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

    # -- worker pool -----------------------------------------------------------

    def _worker_loop(self):
        admission = self.admission
        while True:
            item = admission.next_ready(timeout=0.05)
            if item is None:
                if admission.closed:
                    return
                continue
            tenant, handle, verdict = item
            if verdict == CANCELLED:
                self._settle_abandoned(handle)
            elif verdict == ADMITTED:
                self._run_admitted(tenant, handle)
            else:  # deadline shed at dispatch
                self._settle_shed(
                    handle, admission.shed_verdict(tenant, handle)
                )

    def _reaper_loop(self):
        """Periodically shed queued tickets whose deadline already died.

        The sweep doubles as the recalibration heartbeat: with a
        :class:`CalibrationPolicy` attached, each pass gives
        :meth:`maybe_recalibrate` a chance to re-price the cost model
        from live traffic (the policy's interval does the pacing).
        """
        admission = self.admission
        while True:
            for tenant, handle, verdict in admission.reap_expired():
                if verdict == CANCELLED:
                    self._settle_abandoned(handle)
                else:
                    self._settle_shed(
                        handle, admission.shed_verdict(tenant, handle)
                    )
            if self.calibration is not None:
                self.maybe_recalibrate()
            if admission.closed:
                return
            time.sleep(REAP_INTERVAL)

    # -- calibration -----------------------------------------------------------

    def maybe_recalibrate(self, force=False):
        """Recalibrate the engine's cost model from live traffic.

        Respects the attached :class:`CalibrationPolicy`'s interval
        (*force* skips the pacing but not the sample/completeness gate)
        and records the attempt either way:
        ``serve.recalibrate.applied`` / ``serve.recalibrate.rejected``
        counters plus a ``serve.calibration.samples`` gauge.  Returns
        True when a new profile was applied.  Safe to call directly —
        deterministic tests on a :class:`~repro.util.timing.VirtualClock`
        drive this instead of waiting on the reaper's wall-clock sweep.
        """
        policy = self.calibration
        if policy is None:
            return False
        now = self.clock.now()
        with self._lock:
            last = self._last_calibration_attempt
            if (
                not force
                and last is not None
                and now - last < policy.interval_seconds
            ):
                return False
            self._last_calibration_attempt = now
        applied, profile, reason = self.engine.recalibrate(policy=policy)
        metrics = self.engine.metrics
        if applied:
            self.last_profile = profile
            metrics.inc("serve.recalibrate.applied")
            metrics.gauge("serve.calibration.samples").set(profile.samples)
        else:
            metrics.inc("serve.recalibrate.rejected")
        return applied

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
        outcome = COMPLETED
        kwargs = {"deadline": handle.deadline}
        if handle.mode is not None:
            kwargs["mode"] = handle.mode
        try:
            result = self.engine.execute(handle.sql, **kwargs)
        except QueryDeadlineExceeded as exc:
            outcome = ABANDONED if handle.deadline.cancelled else EXPIRED
            handle._settle_exception(exc)
        except Exception as exc:  # noqa: BLE001 - surfaced via the handle
            outcome = FAILED
            handle._settle_exception(exc)
        else:
            handle._settle_result(result)
        finished_at = self.clock.now()
        handle.finished_at = finished_at
        handle.status = outcome
        service_seconds = finished_at - dispatched_at
        metrics.inc("serve." + outcome)
        metrics.inc("serve." + outcome, tenant=tenant)
        if outcome == COMPLETED:
            metrics.observe(
                "serve.e2e_seconds", finished_at - handle.submitted_at,
                tenant=tenant,
            )
        if outcome != ABANDONED:
            # SLO accounting: completions (timely or late), failures,
            # and expiries all settle against the objective; a client
            # cancel is the caller's choice and charges nothing.
            record_settlement(
                metrics,
                self.engine.tracer,
                self.admission.policy_for(tenant),
                tenant,
                outcome,
                finished_at - handle.submitted_at,
                completed=outcome == COMPLETED,
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
        # A shed is an answer the service failed to give in time — it
        # charges the tenant's error budget like a late completion.
        record_settlement(
            metrics,
            self.engine.tracer,
            self.admission.policy_for(handle.tenant),
            handle.tenant,
            SHED,
            handle.finished_at - handle.submitted_at,
            completed=False,
        )
        handle._settle_exception(exc)

    def _settle_abandoned(self, handle):
        handle.status = ABANDONED
        handle.finished_at = self.clock.now()
        metrics = self.engine.metrics
        metrics.inc("serve.cancelled")
        metrics.inc("serve.cancelled", tenant=handle.tenant)
        self._emit(SERVE_CANCEL, tenant=handle.tenant, where="queued")
        handle._settle_exception(
            QueryDeadlineExceeded(
                "query abandoned while queued: {}".format(
                    handle.deadline.reason
                ),
                deadline=handle.deadline,
            )
        )

    def _abandon(self, handle):
        """Client-disconnect path from :meth:`QueryHandle.cancel`."""
        if self.admission.withdraw(handle.tenant, handle):
            self._settle_abandoned(handle)
        # Otherwise the query is running (or about to be dispatched):
        # the cancelled deadline interrupts it at the next checkpoint
        # and the worker settles it as cancelled.

    # -- observability ---------------------------------------------------------

    def _emit(self, name, **args):
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.emit(name, **args)

    def slo_report(self):
        """Per-tenant SLO status (see :func:`repro.serve.slo.slo_report`)."""
        return slo_report(self.engine.metrics, self.admission.policies())

    def stats(self):
        """Admission + pump accounting, one dict."""
        payload = {
            "admission": self.admission.stats(),
            "pump": self.engine.pump.snapshot(),
        }
        slo = self.slo_report()
        if slo:
            payload["slo"] = slo
        if self.last_profile is not None:
            payload["calibration"] = self.last_profile.to_dict()
        return payload
