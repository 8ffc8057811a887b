"""Weighted fair scheduling of queued queries across tenants.

Classic stride scheduling over per-tenant FIFO queues: each dispatch
advances the chosen tenant's *virtual time* by ``1 / weight``, and the
next dispatch goes to the backlogged tenant with the smallest
virtual time.  A tenant with weight 2 therefore drains twice as fast as
a weight-1 tenant under contention, while an uncontended tenant is
unaffected — the standard WFQ contract.

Idle tenants do not bank credit: when a tenant goes from idle to
backlogged its virtual time is brought forward to the scheduler's
current virtual clock, so a tenant that submitted nothing for an hour
cannot starve everyone else afterwards.

The structure is deliberately *not* thread-safe — the admission
controller guards it with its own lock, which keeps the fairness logic
deterministic and directly unit-testable.
"""

from collections import deque


class FairScheduler:
    """Stride scheduler over per-tenant FIFO queues (not thread-safe)."""

    def __init__(self):
        self._queues = {}  # tenant -> deque of items
        self._vtime = {}  # tenant -> virtual time
        self._weights = {}  # tenant -> weight (> 0)
        #: Virtual time of the most recent dispatch — the "now" an
        #: idle tenant is brought forward to when it re-arrives.
        self._clock = 0.0
        self.dispatched = 0

    def set_weight(self, tenant, weight):
        if weight <= 0:
            raise ValueError("tenant weight must be positive")
        self._weights[tenant] = float(weight)

    def weight_of(self, tenant):
        return self._weights.get(tenant, 1.0)

    def push(self, tenant, item):
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        if not queue:
            # Arriving from idle: no banked credit.
            self._vtime[tenant] = max(
                self._vtime.get(tenant, 0.0), self._clock
            )
        queue.append(item)

    def pop(self):
        """Dispatch from the min-vtime backlogged tenant.

        Returns ``(tenant, item)`` or ``None`` when nothing is queued.
        Ties break on tenant name for determinism.
        """
        best = None
        for tenant, queue in self._queues.items():
            if not queue:
                continue
            key = (self._vtime.get(tenant, 0.0), str(tenant))
            if best is None or key < best[0]:
                best = (key, tenant)
        if best is None:
            return None
        tenant = best[1]
        item = self._queues[tenant][0]
        self.remove(tenant, item, dispatch=True)
        return tenant, item

    def remove(self, tenant, item, dispatch=False):
        """Withdraw one queued *item* (e.g. an abandoned query); with
        ``dispatch=True`` it is dispatched out of turn, and its tenant is
        charged as :meth:`pop` charges it.  False if it is not queued."""
        queue = self._queues.get(tenant)
        if queue is None:
            return False
        try:
            queue.remove(item)
        except ValueError:
            return False
        if dispatch:
            vtime = self._vtime.get(tenant, 0.0)
            self._vtime[tenant] = vtime + 1.0 / self.weight_of(tenant)
            self._clock = max(self._clock, vtime)
            self.dispatched += 1
        return True

    def __iter__(self):
        """Every queued ``(tenant, item)``, each tenant's in queue order."""
        for tenant, queue in self._queues.items():
            for item in queue:
                yield tenant, item

    def total_depth(self):
        return sum(len(queue) for queue in self._queues.values())
