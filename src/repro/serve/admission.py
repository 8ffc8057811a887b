"""Admission control: bounded queues, load shedding, fair dispatch.

The admission controller is the gate between :class:`~repro.serve.session.QueryService`'s
API and the client threads that run its queries.  Its state machine per
query:

``submitted`` → (queue full? → **shed** ``queue_full``)
→ ``queued`` → (deadline spent while waiting? → **shed** ``deadline``;
abandoned? → **cancelled**) → ``dispatched`` → released.

Shedding is *deadline-aware*, and nothing sweeps for it: whoever touches
the queue (a submit, a waiter's pick, a release, a withdraw, a close)
first takes out every queued ticket whose deadline is spent, and a
waiter that sleeps wakes by the earliest queued deadline.  While any
thread waits through the service, a dead ticket is therefore shed
within one query's run of its deadline with a typed
:class:`~repro.util.errors.AdmissionRejected` (``reason="deadline"``,
``retry_after`` from the controller's service-time estimate), instead
of waiting for its fair-schedule turn or burning pump slots.
Queue-depth rejections happen at submit time, before the query consumes
any queue memory.

Fairness across tenants is delegated to
:class:`~repro.serve.scheduler.FairScheduler` (weighted stride
scheduling); ``max_running`` admitted tickets at a time is the only
concurrency bound.
"""

import math
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

#: The verdict on a ticket withdrawn, or abandoned, while queued.
CANCELLED = "cancelled"


def _seconds_left(ticket):
    deadline = getattr(ticket, "deadline", None)
    return math.inf if deadline is None else deadline.remaining()


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
    come from each :class:`TenantPolicy`); ``max_running`` bounds the
    tickets admitted and not yet released.  Every ticket that leaves
    the queue unrun is reported once, under the controller's lock, as
    ``settle(tenant, ticket, verdict)`` with *verdict* one of
    :data:`SHED_DEADLINE`, :data:`SHED_SHUTDOWN` and :data:`CANCELLED`.
    ``retry_after`` hints come from an EWMA of service times, seeded
    with 0.1 s and refined by every :meth:`release`.
    """

    def __init__(
        self, policies=None, max_queued=256, max_running=1, settle=None, clock=None
    ):
        self.clock = resolve_clock(clock)
        self.max_queued = max_queued
        self.max_running = max_running
        self._settle = settle or (lambda tenant, ticket, verdict: None)
        self._cond = threading.Condition()
        self._scheduler = FairScheduler()
        self._states = {}
        self._running = 0
        self._closed = False
        self._mean_service = 0.1
        #: No queued ticket's deadline is spent before this clock reading.
        self._next_expiry = math.inf
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
        attribute — the service uses its
        :class:`~repro.serve.session.QueryHandle`.
        """
        with self._cond:
            if self._closed:
                raise AdmissionRejected(
                    "query service is shutting down",
                    tenant=tenant,
                    reason=SHED_SHUTDOWN,
                )
            self._expire_locked()
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
            self._next_expiry = min(
                self._next_expiry, self.clock.now() + _seconds_left(ticket)
            )
            self._cond.notify_all()

    def _retry_after_locked(self, state):
        """Seconds until a retry plausibly finds room (an estimate).

        The backlog ahead of a retry drains at roughly one query per
        mean service time.
        """
        return round(self._mean_service * max(1, state.queued), 4)

    # -- dispatch side (waiting threads) ---------------------------------------

    def next_ticket(self, own=None, give_up=math.inf):
        """Block until the calling thread has a ticket to run; admit it.

        *own* is the ticket the caller waits for (duck-typed ``tenant``
        and ``done()``).  While every queued ticket could be admitted
        now, the caller runs its own ticket and no other; while tickets
        outnumber the free slots, it runs the fair-order head, which may
        be another tenant's.  ``own=None`` is a closing thread: it runs
        every head a slot is free for.

        Returns ``(tenant, ticket)``, which holds a running slot until
        :meth:`release`, or ``None`` once *own* is done (``own=None``:
        once nothing is queued) or the clock passes *give_up*.
        """
        with self._cond:
            while True:
                self._expire_locked()
                depth = self._scheduler.total_depth()
                finished = own.done() if own is not None else not depth
                if finished:
                    return None
                free = self.max_running - self._running
                picked = None
                if free > 0:
                    if own is None or depth > free:
                        picked = self._scheduler.pop()
                    elif self._scheduler.remove(own.tenant, own, dispatch=True):
                        picked = own.tenant, own
                if picked is not None:
                    state = self._states[picked[0]]
                    state.queued -= 1
                    state.active += 1
                    state.admitted += 1
                    self._running += 1
                    return picked
                now = self.clock.now()
                if now >= give_up:
                    return None
                wake = min(give_up, self._next_expiry)
                self._cond.wait(None if wake == math.inf else wake - now)

    def _expire_locked(self):
        """Take out and settle every queued ticket whose deadline is spent."""
        now = self.clock.now()
        if now < self._next_expiry:
            return
        self._next_expiry = math.inf
        for tenant, ticket in list(self._scheduler):
            left = _seconds_left(ticket)
            if left > 0:
                self._next_expiry = min(self._next_expiry, now + left)
            else:
                self._scheduler.remove(tenant, ticket)
                self._settle_locked(
                    tenant,
                    ticket,
                    CANCELLED if ticket.deadline.cancelled else SHED_DEADLINE,
                )

    def _settle_locked(self, tenant, ticket, verdict):
        state = self._states[tenant]
        state.queued -= 1
        if verdict == CANCELLED:
            state.cancelled += 1
        else:
            state.shed += 1
        self._settle(tenant, ticket, verdict)
        self._cond.notify_all()

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

    def release(self, tenant, outcome="completed", service_seconds=None):
        """Return *tenant*'s running slot; *outcome* updates accounting."""
        with self._cond:
            state = self._states[tenant]
            state.active -= 1
            self._running -= 1
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
            self._expire_locked()
            self._cond.notify_all()

    def withdraw(self, tenant, ticket):
        """Settle an abandoned ticket as cancelled if it is still queued
        (a running one observes its cancelled deadline instead)."""
        with self._cond:
            if self._scheduler.remove(tenant, ticket):
                self._settle_locked(tenant, ticket, CANCELLED)
            self._expire_locked()

    # -- lifecycle / introspection ---------------------------------------------

    def close(self, drain=True):
        """Stop admitting.  With ``drain=False`` the backlog is settled
        as shed with ``reason="shutdown"``; with ``drain=True`` it is left
        for :meth:`next_ticket` to hand out."""
        with self._cond:
            self._closed = True
            self._expire_locked()
            if not drain:
                for tenant, ticket in list(self._scheduler):
                    self._scheduler.remove(tenant, ticket)
                    self._settle_locked(tenant, ticket, SHED_SHUTDOWN)
            self._cond.notify_all()

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
