"""Scatter-gather client for a sharded search engine.

:class:`ShardedSearchClient` is the *network* half of the sharded
search tier (:mod:`repro.web.sharding` is the compute half).  It is a
drop-in :class:`~repro.web.client.SearchClient`: the vtables, the
request pump, the cache, and the cost model all keep talking to one
destination (the engine name) — internally the network half of every
attempt scatters one probe per shard, charges per-shard latency keyed
on the destination ``{engine}:shard{i}``, gathers the partials, and
merges them exactly (count summation, deterministic top-k merge).

The probes of one scatter are sibling tasks on the loop that runs the
attempt, so per-shard waits overlap in either execution mode: what a
synchronous plan serializes is the *logical* call (one scatter
outstanding per query), as a broker serializes nothing for a caller
that happens to block.

Resilience is per shard:

- every probe passes a per-shard :class:`CircuitBreaker` gate and a
  per-shard fault gate (the :class:`~repro.web.faults.FaultModel` keys
  draws on the shard destination, so ``begin_outage("AV:shard2")``
  takes down exactly one shard);
- OUTAGE-class probe failures (shard down, breaker open) *degrade*: the
  gather proceeds without that shard and reports a partial result —
  the paper-era alternative, failing the whole query because 1/N of
  the corpus is unreachable, is exactly what scatter-gather brokers
  exist to avoid.  Anything else (hard errors, exhausted transients)
  propagates, so the on_error/retry semantics of the unsharded client
  are preserved;
- the pump retries the *scatter* (one attempt of the logical call);
  per-shard fault draws are keyed on the scatter attempt, so a retry
  re-draws every shard.

Hedged requests: once enough service-time samples accumulate for a
shard, a probe that has not answered within that shard's observed p95
gets a **backup probe to a replica** of the same shard (latency draws
keyed on ``{dest}~hedge``, fault draws shared with the primary).  First
success wins; the loser is cancelled (or, if it already settled, simply
dropped) with exact accounting::

    hedges_issued == hedges_won + hedges_lost
    hedge_cancels + hedge_losers_settled == hedges_issued

Replica probes compute the same partial from the same shard index and
fail exactly when their primary does, so hedging can never change a
result — only its latency — whenever it happens to arm.
"""

import asyncio
import time
from collections import deque

from repro.asynciter.resilience import CircuitBreaker
from repro.obs.trace import (
    SHARD_GATHER,
    SHARD_HEDGE,
    SHARD_OUTAGE,
    SHARD_SCATTER,
)
from repro.util.errors import BreakerOpenError, EngineOutageError
from repro.web.client import SearchClient
from repro.web.faults import OUTAGE, Fault
from repro.web.sharding import (
    merge_count_partials,
    merge_search_partials,
    shard_destination,
)

#: Probe failures that degrade to a partial gather instead of failing
#: the whole scatter: the shard (or its breaker) says "down", and the
#: other shards still hold (N-1)/N of the corpus.
DEGRADABLE_ERRORS = (EngineOutageError, BreakerOpenError)

#: Service-time samples retained per shard for the hedge-delay estimate.
SAMPLE_WINDOW = 64

#: Samples required before hedging arms for a shard (a p95 from fewer
#: observations is noise).
DEFAULT_HEDGE_MIN_SAMPLES = 8


def _p95(samples):
    ordered = sorted(samples)
    return ordered[int(0.95 * (len(ordered) - 1))]


class ShardedSearchClient(SearchClient):
    """Latency-charging scatter-gather access to a sharded engine.

    *engine* must be a
    :class:`~repro.web.sharding.ShardedSearchEngine`.  All other
    parameters match :class:`~repro.web.client.SearchClient`;
    additionally:

    ``hedge``
        Master switch for hedged requests (default on; they only arm
        once per-shard samples accumulate anyway).
    ``hedge_delay``
        Fixed hedge trigger in seconds, overriding the calibrated
        per-shard p95 (tests pin this for determinism).
    ``hedge_min_samples``
        Observations required per shard before the calibrated trigger
        arms.
    """

    def __init__(
        self,
        engine,
        latency=None,
        cache=None,
        page_size=10,
        faults=None,
        resilience=None,
        obs=None,
        hedge=True,
        hedge_delay=None,
        hedge_min_samples=DEFAULT_HEDGE_MIN_SAMPLES,
    ):
        super().__init__(
            engine,
            latency=latency,
            cache=cache,
            page_size=page_size,
            faults=faults,
            resilience=resilience,
            obs=obs,
        )
        self.num_shards = engine.num_shards
        self.hedge = hedge
        self.hedge_delay = hedge_delay
        self.hedge_min_samples = hedge_min_samples
        self.destinations = [
            shard_destination(engine.name, shard_id)
            for shard_id in range(self.num_shards)
        ]
        breaker_config = (
            resilience.breaker if resilience is not None else None
        )
        self._breakers = (
            {dest: CircuitBreaker(dest, breaker_config) for dest in self.destinations}
            if breaker_config is not None
            else {}
        )
        self._samples = {dest: deque(maxlen=SAMPLE_WINDOW) for dest in self.destinations}
        self._per_shard = {
            dest: {
                "requests": 0,
                "failures": 0,
                "degraded": 0,
                "hedges_issued": 0,
                "hedges_won": 0,
            }
            for dest in self.destinations
        }
        # Scatter/hedge accounting (the invariants the tests pin).
        self.scatters = 0
        self.degraded_gathers = 0
        self.hedges_issued = 0
        self.hedges_won = 0
        self.hedges_lost = 0
        self.hedge_cancels = 0
        self.hedge_losers_settled = 0

    # -- the scatter ----------------------------------------------------------

    async def _request(self, kind, expr_text, limit, attempt):
        """The network half of one attempt: all shard probes in flight.

        Probes run as sibling tasks (the whole point — per-shard waits
        overlap), each with its own hedge race.  Degradable failures
        are collected; anything else fails the attempt (the pump's
        retry loop decides what happens next, exactly as for the
        unsharded client).  Cancellation of the scatter (pump timeout,
        deadline) cancels every outstanding probe before propagating,
        so no shard task outlives its call.
        """
        self._emit_scatter(kind, expr_text)
        expression = self.engine.parse(expr_text)
        tasks = [
            asyncio.ensure_future(
                self._probe(shard_id, expression, expr_text, kind, limit, attempt)
            )
            for shard_id in range(self.num_shards)
        ]
        try:
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        except asyncio.CancelledError:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        partials, failures = [], []
        for shard_id, outcome in enumerate(outcomes):
            if isinstance(outcome, DEGRADABLE_ERRORS):
                failures.append((shard_id, outcome))
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                partials.append(outcome)
        return self._gather(kind, expr_text, limit, partials, failures)

    def _gather(self, kind, expr_text, limit, partials, failures):
        """Merge partials; degrade (or fail) according to what came back."""
        for shard_id, exc in failures:
            dest = self.destinations[shard_id]
            self._per_shard[dest]["degraded"] += 1
            self._emit(
                SHARD_OUTAGE,
                destination=dest,
                error=type(exc).__name__,
                kind=kind,
                expr=expr_text,
            )
        if failures and not partials:
            raise failures[0][1]
        if failures:
            self.degraded_gathers += 1
        self._emit(
            SHARD_GATHER,
            destination=self.engine.name,
            kind=kind,
            expr=expr_text,
            ok=len(partials),
            failed=len(failures),
            degraded=bool(failures),
        )
        if kind == "count":
            return merge_count_partials(partials)
        return merge_search_partials(partials, limit)

    def _emit_scatter(self, kind, expr_text):
        self.scatters += 1
        self._emit(
            SHARD_SCATTER,
            destination=self.engine.name,
            kind=kind,
            expr=expr_text,
            shards=self.num_shards,
        )

    # -- one shard probe ------------------------------------------------------

    async def _probe(self, shard_id, expression, expr_text, kind, limit, attempt):
        """One shard's probe, hedged: primary now, backup after the trigger.

        The hedge trigger is the shard's observed p95 service time (or
        the pinned ``hedge_delay``); until enough samples exist the
        probe runs unhedged.  First successful replica wins the race;
        the loser is cancelled and awaited, so the probe never leaks a
        task.  Both replicas failing re-raises the primary's error.
        """
        dest = self.destinations[shard_id]
        self._breaker_gate(dest)
        started = time.monotonic()
        trigger = self._hedge_trigger(dest)
        primary = asyncio.ensure_future(
            self._probe_once(shard_id, dest, expression, expr_text, kind, limit, attempt)
        )
        racers = {primary: "primary"}
        try:
            if trigger is not None:
                done, _ = await asyncio.wait({primary}, timeout=trigger)
                if not done:
                    self.hedges_issued += 1
                    self._per_shard[dest]["hedges_issued"] += 1
                    self._emit(
                        SHARD_HEDGE,
                        destination=dest,
                        kind=kind,
                        expr=expr_text,
                        delay=trigger,
                    )
                    backup = asyncio.ensure_future(
                        self._probe_once(
                            shard_id,
                            dest + "~hedge",
                            expression,
                            expr_text,
                            kind,
                            limit,
                            attempt,
                        )
                    )
                    racers[backup] = "backup"
            winner, partial = await self._race(racers, primary)
        except asyncio.CancelledError:
            for task in racers:
                task.cancel()
            await asyncio.gather(*racers, return_exceptions=True)
            if len(racers) > 1:
                # The scatter itself was cancelled with a hedge in
                # flight: the backup settles as a cancelled loser so
                # the accounting identities still balance.
                self.hedges_lost += 1
                self.hedge_cancels += 1
            raise
        except Exception:
            self._record_outcome(dest, ok=False)
            raise
        if len(racers) > 1:
            if winner == "backup":
                self.hedges_won += 1
                self._per_shard[dest]["hedges_won"] += 1
            else:
                self.hedges_lost += 1
        self._record_outcome(dest, ok=True, elapsed=time.monotonic() - started)
        return partial

    async def _race(self, racers, primary):
        """First successful racer wins; settle (and account for) the rest.

        Returns ``(role, result)``.  With every racer failed, re-raise
        the primary's error — the hedge was a latency bet, it must not
        change *which* error a doomed probe reports.
        """
        pending = set(racers)
        winner = None
        while pending and winner is None:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            # Iterate in racer (primary-first) order: when both replicas
            # settle in the same wake-up, the primary wins the tie, so
            # the won/lost tallies are deterministic.
            for task in racers:
                if task in done and task.exception() is None and winner is None:
                    winner = task
        if winner is None:
            if len(racers) > 1:
                # Both replicas failed: the backup is the settled loser.
                self.hedges_lost += 1
                self.hedge_losers_settled += 1
            return ("primary", self._reraise_primary(racers, primary))
        for task in pending:
            if task.cancel():
                self.hedge_cancels += 1
            else:
                self.hedge_losers_settled += 1
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        settled_losers = [
            task for task in racers if task is not winner and task.done() and task not in pending
        ]
        self.hedge_losers_settled += len(settled_losers)
        return (racers[winner], winner.result())

    def _reraise_primary(self, racers, primary):
        for task in racers:
            if task is not primary and not task.done():
                task.cancel()
        raise primary.exception()

    async def _probe_once(
        self, shard_id, replica_dest, expression, expr_text, kind, limit, attempt
    ):
        """One replica's attempt: fault gate, latency waits, compute.

        ``replica_dest`` keys the latency draws — the primary uses the
        shard destination, a hedge backup uses ``{dest}~hedge`` (a
        different replica of the same shard, with its own network
        weather).  The fault draw and the computed partial are
        identical either way.
        """
        await self._fault_gate(replica_dest, expr_text, attempt)
        # A count is one request per shard; a ranked probe pages through
        # up to *limit* candidates per shard (each shard may hold the
        # entire global top-k), sequentially, like the unsharded client.
        for _ in range(self._round_trips(kind, limit)):
            await self._round_trip(replica_dest, expr_text)
        return self._compute(shard_id, expression, kind, limit)

    def _compute(self, shard_id, expression, kind, limit):
        if kind == "count":
            return self.engine.shard_count(shard_id, expression)
        return self.engine.shard_search_partials(shard_id, expression, limit)

    # -- per-shard network simulation -----------------------------------------

    def _count_round_trip(self, dest):
        super()._count_round_trip(dest)
        base = dest.split("~", 1)[0]
        if base in self._per_shard:
            self._per_shard[base]["requests"] += 1
        if self.obs is not None:
            self.obs.metrics.inc("shard.round_trips", destination=dest)

    def _next_fault(self, dest, expr_text, attempt):
        # A whole-engine outage window downs every shard at once; the
        # per-destination draw covers single-shard weather.
        if (
            self.faults is not None
            and self.faults.is_down(self.engine.name)
            and not self.faults.is_down(dest)
        ):
            self.faults_seen += 1
            return Fault(
                OUTAGE,
                EngineOutageError(
                    "engine {!r} is down (connection refused)".format(self.engine.name)
                ),
            )
        # A hedge replica shares its primary's fault draw (only its latency
        # is its own): hedging changes when a probe answers, never whether.
        return super()._next_fault(dest.split("~", 1)[0], expr_text, attempt)

    # -- breakers, samples, hedge calibration ---------------------------------

    def _breaker_gate(self, dest):
        breaker = self._breakers.get(dest)
        if breaker is not None and not breaker.allow():
            raise BreakerOpenError(
                "circuit breaker open for shard {!r}: failing fast".format(dest)
            )

    def _record_outcome(self, dest, ok, elapsed=None):
        breaker = self._breakers.get(dest)
        stats = self._per_shard[dest]
        if ok:
            if breaker is not None:
                breaker.record_success()
            if elapsed is not None:
                self._samples[dest].append(elapsed)
                if self.obs is not None:
                    self.obs.metrics.observe(
                        "request.service_seconds", elapsed, destination=dest
                    )
        else:
            stats["failures"] += 1
            if breaker is not None:
                breaker.record_failure()

    def _hedge_trigger(self, dest):
        """Seconds to wait before hedging a probe to *dest* (None = don't)."""
        if not self.hedge:
            return None
        if self.hedge_delay is not None:
            return self.hedge_delay
        samples = self._samples[dest]
        if len(samples) < self.hedge_min_samples:
            return None
        return _p95(samples)

    # -- reporting ------------------------------------------------------------

    def _emit(self, name, destination, **args):
        if self.obs is not None and self.obs.tracer is not None:
            self.obs.tracer.emit(name, destination=destination, **args)

    def shard_stats(self):
        """Per-shard request/breaker/hedge view (metrics_snapshot feed)."""
        per_shard = {}
        for dest in self.destinations:
            entry = dict(self._per_shard[dest])
            breaker = self._breakers.get(dest)
            if breaker is not None:
                entry["breaker"] = breaker.snapshot()
            samples = self._samples[dest]
            if samples:
                entry["service_p95"] = _p95(samples)
            per_shard[dest] = entry
        return {
            "num_shards": self.num_shards,
            "scatters": self.scatters,
            "degraded_gathers": self.degraded_gathers,
            "hedges": {
                "issued": self.hedges_issued,
                "won": self.hedges_won,
                "lost": self.hedges_lost,
                "cancelled": self.hedge_cancels,
                "losers_settled": self.hedge_losers_settled,
            },
            "per_shard": per_shard,
        }
