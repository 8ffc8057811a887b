"""Admission control: bounded queues, load shedding, fair dispatch.

The admission controller is the gate between :class:`~repro.serve.session.QueryService`'s
API and its worker pool.  Its state machine per query:

``submitted`` → (queue full? → **shed** ``queue_full``)
→ ``queued`` → (deadline spent while waiting? → **shed** ``deadline``;
abandoned? → **cancelled**) → ``dispatched`` → released.

Shedding is *deadline-aware*: a query whose queue wait already consumed
its deadline is rejected at dispatch time with a typed
:class:`~repro.util.errors.AdmissionRejected` (``reason="deadline"``,
``retry_after`` populated from the controller's service-time estimate)
instead of being handed to a worker that could only burn pump slots on
it.  Queue-depth rejections happen at submit time, before the query
consumes any queue memory.

Fairness across tenants is delegated to
:class:`~repro.serve.scheduler.FairScheduler` (weighted stride
scheduling); the worker pool is the only concurrency bound.
"""

import threading

from repro.serve.scheduler import FairScheduler
from repro.util.errors import AdmissionRejected
from repro.util.timing import resolve_clock

#: Tenant name used when a caller does not identify itself.
DEFAULT_TENANT = "default"

#: Shed reasons (the ``reason`` field of :class:`AdmissionRejected`).
SHED_QUEUE_FULL = "queue_full"
SHED_DEADLINE = "deadline"
SHED_SHUTDOWN = "shutdown"

#: Dispatch verdicts returned by :meth:`AdmissionController.next_ready`.
ADMITTED = "admitted"
SHED = "shed"
CANCELLED = "cancelled"


class TenantPolicy:
    """Budgets for one tenant.

    ``weight``
        Fair-share weight (relative pump-slot share under contention).
    ``max_queued``
        Queue-depth cap; submissions beyond it are shed immediately
        with ``reason="queue_full"``.
    """

    __slots__ = ("name", "weight", "max_queued")

    def __init__(self, name, weight=1.0, max_queued=None):
        if weight <= 0:
            raise ValueError("tenant weight must be positive")
        if max_queued is not None and max_queued < 0:
            raise ValueError("max_queued cannot be negative")
        self.name = name
        self.weight = float(weight)
        self.max_queued = max_queued

    def __repr__(self):
        return "TenantPolicy({!r}, weight={}, max_queued={})".format(
            self.name, self.weight, self.max_queued
        )


class _TenantState:
    """Live accounting for one tenant."""

    __slots__ = (
        "policy",
        "queued",
        "active",
        "submitted",
        "admitted",
        "shed",
        "completed",
        "failed",
        "cancelled",
    )

    def __init__(self, policy):
        self.policy = policy
        self.queued = 0
        self.active = 0
        self.submitted = 0
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0

    def snapshot(self):
        return {
            "queued": self.queued,
            "active": self.active,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "weight": self.policy.weight,
        }


class AdmissionController:
    """Bounded, deadline-aware, weighted-fair admission queue.

    ``max_queued`` is the *service-wide* queue bound (per-tenant caps
    come from each :class:`TenantPolicy`).  ``retry_after`` hints come
    from an EWMA of service times, seeded with 0.1 s and refined by
    every :meth:`release`.
    """

    def __init__(self, policies=None, max_queued=256, clock=None):
        self.clock = resolve_clock(clock)
        self.max_queued = max_queued
        self._cond = threading.Condition()
        self._scheduler = FairScheduler()
        self._states = {}
        self._closed = False
        self._mean_service = 0.1
        for policy in policies or ():
            self._ensure(policy.name, policy)

    # -- tenant registry -------------------------------------------------------

    def _ensure(self, tenant, policy=None):
        state = self._states.get(tenant)
        if state is None:
            state = _TenantState(policy or TenantPolicy(tenant))
            self._states[tenant] = state
            self._scheduler.set_weight(tenant, state.policy.weight)
        return state

    # -- submit side -----------------------------------------------------------

    def submit(self, tenant, ticket):
        """Queue *ticket* for *tenant*, or shed with ``queue_full``.

        The ticket is any object carrying a duck-typed ``deadline``
        attribute (checked at dispatch) — the service uses its
        :class:`~repro.serve.session.QueryHandle`.
        """
        with self._cond:
            if self._closed:
                raise AdmissionRejected(
                    "query service is shutting down",
                    tenant=tenant,
                    reason=SHED_SHUTDOWN,
                )
            state = self._ensure(tenant)
            state.submitted += 1
            cap = state.policy.max_queued
            if (cap is not None and state.queued >= cap) or (
                self.max_queued is not None
                and self._scheduler.total_depth() >= self.max_queued
            ):
                state.shed += 1
                raise AdmissionRejected(
                    "tenant {!r} admission queue is full "
                    "({} queued)".format(tenant, state.queued),
                    tenant=tenant,
                    reason=SHED_QUEUE_FULL,
                    retry_after=self._retry_after_locked(state),
                )
            state.queued += 1
            self._scheduler.push(tenant, ticket)
            self._cond.notify()

    def _retry_after_locked(self, state):
        """Seconds until a retry plausibly finds room (an estimate).

        The backlog ahead of a retry drains at roughly one query per
        mean service time.
        """
        return round(self._mean_service * max(1, state.queued), 4)

    # -- dispatch side (worker threads) ----------------------------------------

    def next_ready(self, timeout=None):
        """Block for the next dispatchable ticket.

        Returns ``(tenant, ticket, verdict)`` where *verdict* is:

        - :data:`ADMITTED` — the ticket holds an active slot; the caller
          must :meth:`release` when the query settles;
        - :data:`SHED` — the queue wait consumed the ticket's deadline;
          the caller should fail it fast (no slot held);
        - :data:`CANCELLED` — the ticket was abandoned while queued (its
          deadline was *cancelled*, not merely spent); no slot held;

        or ``None`` on timeout / after :meth:`close` with an empty queue.
        """
        deadline = (
            None if timeout is None else self.clock.now() + timeout
        )
        with self._cond:
            while True:
                picked = self._scheduler.pop()
                if picked is not None:
                    tenant, ticket = picked
                    state = self._states[tenant]
                    state.queued -= 1
                    ticket_deadline = getattr(ticket, "deadline", None)
                    if ticket_deadline is not None and ticket_deadline.expired:
                        if ticket_deadline.cancelled:
                            state.cancelled += 1
                            return tenant, ticket, CANCELLED
                        state.shed += 1
                        return tenant, ticket, SHED
                    state.active += 1
                    state.admitted += 1
                    return tenant, ticket, ADMITTED
                if self._closed and self._scheduler.total_depth() == 0:
                    return None
                remaining = (
                    None if deadline is None else deadline - self.clock.now()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(timeout=remaining)

    def shed_verdict(self, tenant, ticket):
        """The typed rejection for a deadline-shed ticket."""
        with self._cond:
            state = self._ensure(tenant)
            retry_after = self._retry_after_locked(state)
        return AdmissionRejected(
            "queue wait consumed the deadline for tenant {!r}".format(tenant),
            tenant=tenant,
            reason=SHED_DEADLINE,
            retry_after=retry_after,
        )

    def reap_expired(self):
        """Shed every queued ticket whose deadline has already expired.

        Returns ``[(tenant, ticket, verdict)]`` — :data:`CANCELLED` for
        abandoned tickets, :data:`SHED` for spent deadlines — with the
        tickets already removed from the queue; the caller settles them.
        Dispatch-time checks alone would discover a dead ticket only at
        its fair-schedule turn, so its fast-fail latency would grow with
        the backlog; a periodic reap bounds it by the sweep interval.
        """

        def _expired(ticket):
            deadline = getattr(ticket, "deadline", None)
            return deadline is not None and deadline.expired

        out = []
        with self._cond:
            for tenant, ticket in self._scheduler.drain_where(_expired):
                state = self._states[tenant]
                state.queued -= 1
                if ticket.deadline.cancelled:
                    state.cancelled += 1
                    out.append((tenant, ticket, CANCELLED))
                else:
                    state.shed += 1
                    out.append((tenant, ticket, SHED))
        return out

    def release(self, tenant, outcome="completed", service_seconds=None):
        """Return *tenant*'s active slot; *outcome* updates accounting."""
        with self._cond:
            state = self._states[tenant]
            state.active -= 1
            if outcome == "completed":
                state.completed += 1
            elif outcome == "failed":
                state.failed += 1
            elif outcome == "cancelled":
                state.cancelled += 1
            if service_seconds is not None:
                # EWMA keeps retry_after hints tracking the workload.
                self._mean_service += 0.2 * (
                    service_seconds - self._mean_service
                )

    def withdraw(self, tenant, ticket):
        """Remove an abandoned ticket still sitting in the queue.

        Returns True when the ticket was withdrawn here (the caller
        settles it); False when it already left the queue (a worker will
        observe the cancelled deadline at dispatch instead).
        """
        with self._cond:
            if not self._scheduler.remove(tenant, ticket):
                return False
            state = self._states[tenant]
            state.queued -= 1
            state.cancelled += 1
            return True

    # -- lifecycle / introspection ---------------------------------------------

    def close(self, drain=True):
        """Stop admitting.  With ``drain=False`` the backlog is returned
        (un-dispatched tickets, for the caller to settle) instead of
        being left for the workers."""
        abandoned = []
        with self._cond:
            self._closed = True
            if not drain:
                while True:
                    picked = self._scheduler.pop()
                    if picked is None:
                        break
                    tenant, ticket = picked
                    state = self._states[tenant]
                    state.queued -= 1
                    state.shed += 1
                    abandoned.append((tenant, ticket))
            self._cond.notify_all()
        return abandoned

    @property
    def closed(self):
        with self._cond:
            return self._closed

    def stats(self):
        with self._cond:
            return {
                "queued": self._scheduler.total_depth(),
                "dispatched": self._scheduler.dispatched,
                "mean_service_estimate": round(self._mean_service, 6),
                "tenants": {
                    str(name): state.snapshot()
                    for name, state in sorted(
                        self._states.items(), key=lambda kv: str(kv[0])
                    )
                },
            }
