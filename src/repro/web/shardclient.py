"""Scatter-gather client for a sharded search engine.

:class:`ShardedSearchClient` is the *network* half of the sharded
search tier (:mod:`repro.web.sharding` is the compute half).  It is a
drop-in :class:`~repro.web.client.SearchClient`: the vtables, the
request pump, the cache, and the cost model all keep talking to one
destination (the engine name) — internally the network half of every
attempt scatters one probe per shard, charges per-shard latency keyed
on the destination ``{engine}:shard{i}``, gathers the partials, and
merges them exactly (count summation, deterministic top-k merge).

The probes of one scatter are described up front — each shard's fault
draw and round trips — and the attempt waits once, for the slowest
shard, which is what a gather waits for.  So per-shard waits overlap in
either execution mode: what a synchronous plan serializes is the
*logical* call (one scatter outstanding per query), as a broker
serializes nothing for a caller that happens to block.

The pump is the only resilience layer; this client keeps the broker's
network model and nothing the pump already does:

- every probe passes a per-shard fault gate (draws are keyed on the
  shard destination, so ``begin_outage("AV:shard2")`` downs exactly one
  shard; a whole-engine outage downs them all);
- an OUTAGE-class probe failure *degrades*: the gather proceeds without
  that shard and reports a partial result, which is what scatter-gather
  brokers exist for.  Anything else fails the attempt, and the pump's
  retry/timeout/breaker loop handles it as for the unsharded client —
  a retry re-scatters, re-drawing every shard's fault.

A probe charges one round trip per page, so ``requests_sent`` is a
function of the fault schedule alone, the same in both modes.
"""

import time

from repro.obs.trace import SHARD_GATHER, SHARD_OUTAGE, SHARD_SCATTER
from repro.util.errors import EngineOutageError
from repro.web.client import SearchClient
from repro.web.faults import OUTAGE, Fault
from repro.web.sharding import merge_count_partials, merge_search_partials, shard_destination

#: Probe failures that degrade to a partial gather: the shard says
#: "down", and the other shards still hold (N-1)/N of the corpus.
DEGRADABLE_ERRORS = (EngineOutageError,)


class ShardedSearchClient(SearchClient):
    """Scatter-gather access to a :class:`~repro.web.sharding.ShardedSearchEngine`.

    Every keyword argument is :class:`~repro.web.client.SearchClient`'s.
    """

    def __init__(self, engine, **options):
        super().__init__(engine, **options)
        self.num_shards = engine.num_shards
        self.destinations = [
            shard_destination(engine.name, shard_id)
            for shard_id in range(self.num_shards)
        ]
        self._per_shard = {
            dest: {"requests": 0, "degraded": 0} for dest in self.destinations
        }
        self.scatters = 0
        self.degraded_gathers = 0

    # -- the scatter ----------------------------------------------------------

    def _request(self, kind, expr_text, limit, attempt):
        """The network half of one attempt: every shard probe at once.

        Each shard draws its fault and charges its round trips up front;
        the attempt then waits for the slowest shard's gate-plus-pages
        time.  Closing the attempt (pump timeout, deadline) cuts that
        one wait, so no shard outlives its call.
        """
        self.scatters += 1
        self._emit(
            SHARD_SCATTER,
            destination=self.engine.name,
            kind=kind,
            expr=expr_text,
            shards=self.num_shards,
        )
        expression = self.engine.parse(expr_text)
        waits, errors = [], []
        for dest in self.destinations:
            gate = self._fault_gate(dest, expr_text, attempt)
            if gate is None:
                pages = range(self._round_trips(kind, limit))
                gate = sum(self._round_trip(dest, expr_text) for _ in pages), None
            waits.append(gate[0])
            errors.append(gate[1])
        slowest = max(waits)
        if slowest > 0:
            yield slowest
        partials = [
            self._probe(shard_id, expression, kind, limit, waits[shard_id])
            for shard_id, error in enumerate(errors)
            if error is None
        ]
        failures = []
        for shard_id, error in enumerate(errors):
            if isinstance(error, DEGRADABLE_ERRORS):
                failures.append((shard_id, error))
            elif error is not None:
                raise error
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

    def _probe(self, shard_id, expression, kind, limit, waited):
        """One healthy shard's compute, after its *waited* seconds of pages.

        A ranked probe pages through up to *limit* candidates (one shard
        may hold the whole global top-k).  The shard's service time — its
        own waits plus its compute — is observed under the shard
        destination, which calibration and the cost model read.
        """
        started = time.monotonic()
        if kind == "count":
            partial = self.engine.shard_count(shard_id, expression)
        else:
            partial = self.engine.shard_search_partials(shard_id, expression, limit)
        if self.obs is not None:
            self.obs.metrics.observe(
                "request.service_seconds",
                waited + time.monotonic() - started,
                destination=self.destinations[shard_id],
            )
        return partial

    # -- per-shard network simulation -----------------------------------------

    def _count_round_trip(self, dest):
        super()._count_round_trip(dest)
        self._per_shard[dest]["requests"] += 1

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
        return super()._next_fault(dest, expr_text, attempt)

    # -- reporting ------------------------------------------------------------

    def _emit(self, name, destination, **args):
        if self.obs is not None and self.obs.tracer is not None:
            self.obs.tracer.emit(name, destination=destination, **args)

    def shard_stats(self):
        """Scatter/gather counts and per-shard requests/degraded gathers."""
        return {
            "num_shards": self.num_shards,
            "scatters": self.scatters,
            "degraded_gathers": self.degraded_gathers,
            "per_shard": {dest: dict(s) for dest, s in self._per_shard.items()},
        }
