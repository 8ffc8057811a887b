"""Clients that add latency (and caching, and faults) in front of a search engine.

The engine computes answers instantly; the client charges the simulated
network delay.  Each request kind is one coroutine —
:meth:`SearchClient.count_async`, :meth:`SearchClient.search_async` —
that performs one *attempt*: consult the fault schedule, ``await`` the
round trips, compute, write the cache.  The cache is *read* in one place,
:meth:`SearchClient.probe`, which the pump calls on the registering
thread before any coroutine exists (an
:class:`~repro.vtables.base.ExternalCall` carries it): a request the
cache can answer never becomes an attempt.  Everything around an attempt
(retries, the per-call timeout, circuit breaking, concurrency limits,
lifecycle tracing) belongs to the
:class:`~repro.asynciter.pump.RequestPump` that runs it, whatever the
execution mode: an asynchronous plan keeps many attempts in flight on the
pump's loop, a synchronous plan registers one and waits for it — the
paper's sequential baseline, where "the query processor is idle during
the request".

A cache hit skips the delay entirely, modelling a local result cache that
avoids the network round trip — and the pump's loop thread, slot limits
and circuit breaker with it.

Fault injection
---------------

With a :class:`~repro.web.faults.FaultModel` attached, each attempt first
consults the fault schedule (a stable function of
``(destination, expr, attempt)``):

- transient/hard faults charge one latency round trip, then raise —
  the request went out and came back an error;
- an engine outage raises immediately (connection refused is fast);
- a hung request sleeps ``hang_seconds`` and then raises
  :class:`~repro.util.errors.RequestTimeoutError`; the pump's per-call
  timeout (or the query deadline) cuts the sleep short.

Negative caching
----------------

An attempt that fails with an error the resilience policy would not
retry (no policy, a non-retryable error, or the last permitted attempt)
is final for its request.  Under a cache with a negative TTL it is
recorded, and replays as :class:`~repro.util.errors.CachedFailureError`
until the record expires.  A cancelled attempt records nothing.

Blocking conveniences
---------------------

``count``/``search`` register the same probe and coroutine with the shared
:func:`~repro.asynciter.pump.default_pump` and wait for the outcome.  That pump
carries no resilience policy, so they make exactly one attempt; queries
run on their engine's pump.
"""

import asyncio

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import default_pump
from repro.util.errors import CachedFailureError, RequestTimeoutError
from repro.vtables.base import ExternalCall
from repro.web.cache import ResultCache
from repro.web.faults import HANG, OUTAGE


def run_blocking(key, destination, factory, probe=None):
    """Run one external call on the shared pump and wait for its outcome."""
    call = ExternalCall(key, destination, factory, probe)
    _, rows, error = AsyncContext(default_pump(), dedup=False).run(call)
    if error is not None:
        raise error
    return rows


class SearchClient:
    """Latency-charging, optionally caching access to one engine.

    ``page_size`` models result pagination: engines of the era returned
    ~10 hits per response, so "retrieving all URLs for a given search
    expression could be extremely expensive (requiring many additional
    network requests beyond the initial search)" (paper Section 3).  A
    ranked search for *limit* hits costs ``ceil(limit / page_size)``
    sequential round trips; counts cost one.

    ``faults`` is an optional :class:`~repro.web.faults.FaultModel`;
    ``resilience`` the :class:`~repro.asynciter.resilience.ResiliencePolicy`
    of the pump that runs this client's attempts — the client only reads
    it to tell a final failure (negatively cached) from one the pump
    will retry.
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
    ):
        if page_size < 1:
            raise ValueError("page size must be positive")
        self.engine = engine
        self.latency = latency
        self.cache = cache
        self.page_size = page_size
        self.faults = faults
        self.resilience = resilience
        self.obs = obs  # optional repro.obs.Observability bundle
        self.requests_sent = 0  # actual (non-cache-hit) request round trips
        self.faults_seen = 0  # injected faults observed by this client

    @property
    def name(self):
        return self.engine.name

    # -- blocking conveniences ----------------------------------------------------

    def count(self, expr_text):
        """:meth:`count_async` sent through the shared pump and waited for."""
        return run_blocking(
            ("count", self.name, expr_text),
            self.name,
            lambda attempt: self.count_async(expr_text, attempt),
            lambda: self.probe("count", expr_text),
        )

    def search(self, expr_text, limit):
        """:meth:`search_async` sent through the shared pump and waited for."""
        return run_blocking(
            ("search", self.name, expr_text, limit),
            self.name,
            lambda attempt: self.search_async(expr_text, limit, attempt),
            lambda: self.probe("search", expr_text, limit),
        )

    # -- one attempt of one request -------------------------------------------------

    async def count_async(self, expr_text, attempt=0):
        """One *attempt* of a count (the pump retries)."""
        return await self._attempt("count", expr_text, None, attempt)

    async def search_async(self, expr_text, limit, attempt=0):
        """One *attempt* of a ranked search (the pump retries)."""
        return await self._attempt("search", expr_text, limit, attempt)

    async def _attempt(self, kind, expr_text, limit, attempt):
        key = ResultCache.key(self.engine.name, kind, expr_text, limit)
        try:
            result = await self._request(kind, expr_text, limit, attempt)
        except Exception as exc:  # cancellation is a BaseException: not recorded
            retry = self.resilience.retry if self.resilience is not None else None
            if retry is None or not retry.should_retry(exc, attempt):
                if self.cache is not None:
                    self.cache.put_failure(key, exc)
            raise
        self._cache_put(key, result)
        return result

    async def _request(self, kind, expr_text, limit, attempt):
        """The network half of one attempt: fault gate, round trips, compute."""
        destination = self.engine.name
        await self._fault_gate(destination, expr_text, attempt)
        # Result pages arrive sequentially: page k+1 cannot be requested
        # before page k's response names it.
        for _ in range(self._round_trips(kind, limit)):
            await self._round_trip(destination, expr_text)
        if kind == "count":
            return self.engine.count(expr_text)
        return self.engine.search(expr_text, limit)

    def _round_trips(self, kind, limit):
        if kind == "count":
            return 1
        return max(1, -(-limit // self.page_size))  # ceil, at least one page

    # -- the simulated network ----------------------------------------------------

    def _next_fault(self, destination, expr_text, attempt):
        if self.faults is None:
            return None
        fault = self.faults.fault_for(destination, expr_text, attempt)
        if fault is not None:
            self.faults_seen += 1
        return fault

    async def _fault_gate(self, destination, expr_text, attempt):
        fault = self._next_fault(destination, expr_text, attempt)
        if fault is None:
            return
        if fault.kind == OUTAGE:
            raise fault.error  # connection refused: no round trip charged
        if fault.kind == HANG:
            self._count_round_trip(destination)
            if fault.hang_seconds > 0:
                await asyncio.sleep(fault.hang_seconds)
            raise RequestTimeoutError(
                "request to {!r} for {!r} hung (gave up after {:.3f}s)".format(
                    destination, expr_text, fault.hang_seconds
                )
            )
        # Transient or hard: the round trip happened and returned an error.
        await self._round_trip(destination, expr_text)
        raise fault.error

    async def _round_trip(self, destination, expr_text):
        self._count_round_trip(destination)
        if self.latency is not None:
            delay = self.latency.delay(destination, expr_text)
            if delay > 0:
                await asyncio.sleep(delay)

    def _count_round_trip(self, destination):
        self.requests_sent += 1
        if self.obs is not None:
            self.obs.metrics.inc("web.round_trips", engine=self.engine.name)

    # -- the cache ----------------------------------------------------------------

    def probe(self, kind, expr_text, limit=None):
        """What the cache holds for one request, without any I/O.

        The value, ``None`` (a miss, or no cache), or a replayed failure
        raised.  The only cache read of a request: a miss here is the
        miss of record, and the attempt that follows only writes.  Fresh
        *and* stale entries serve; a negatively-cached failure replays as
        :class:`~repro.util.errors.CachedFailureError` (deliberately not a
        :class:`~repro.util.errors.TransientWebError`: a replayed failure
        is never retried — the negative TTL, not the retry policy, decides
        when the destination is probed again).
        """
        if self.cache is None:
            return None
        key = ResultCache.key(self.engine.name, kind, expr_text, limit)
        found = self.cache.lookup(key)
        if found.failure:
            raise CachedFailureError(
                "negatively cached failure for {!r}: {}: {}".format(
                    key, found.value.error_type, found.value.message
                )
            )
        return found.value

    def _cache_put(self, key, value):
        if self.cache is not None:
            self.cache.put(key, value)
