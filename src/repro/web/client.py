"""Clients that add latency (and caching, and faults) in front of a search engine.

The engine computes answers instantly; the client charges the simulated
network delay.  Each request kind is one *attempt generator* —
:meth:`SearchClient.count_async`, :meth:`SearchClient.search_async` —
that performs one attempt: consult the fault schedule, ``yield`` the
seconds of each round trip, compute, write the cache, and return the
result.  The cache is *read* in one place, :meth:`SearchClient.probe`,
which the pump calls on the registering thread before any attempt exists
(an :class:`~repro.vtables.base.ExternalCall` carries it): a request the
cache can answer never becomes an attempt.  Everything around an attempt
(the waits themselves, retries, the per-call timeout, circuit breaking,
concurrency limits, lifecycle tracing) belongs to the
:class:`~repro.asynciter.pump.RequestPump` that runs it, whatever the
execution mode: an asynchronous plan keeps many attempts in flight on the
pump's timer heap, a synchronous plan registers one and waits for it
— the paper's sequential baseline, where "the query processor is idle
during the request".  Either way the query thread issues each attempt
and, while it waits, resumes it; no thread is started.

A cache hit skips the delay entirely, modelling a local result cache that
avoids the network round trip — and the pump's heap, slot limits and
circuit breaker with it.

Fault injection
---------------

With a :class:`~repro.web.faults.FaultModel` attached, each attempt first
consults the fault schedule (a stable function of
``(destination, expr, attempt)``):

- transient/hard faults charge one latency round trip, then raise —
  the request went out and came back an error;
- an engine outage raises immediately (connection refused is fast);
- a hung request waits ``hang_seconds`` and then raises
  :class:`~repro.util.errors.RequestTimeoutError`; the pump's per-call
  timeout (or the query's deadline, at its own wait) cuts the wait short.

A failed attempt writes nothing to the cache; whether it is retried is
the pump's decision alone.

Blocking conveniences
---------------------

``count``/``search`` ask the same probe, and on a miss run one attempt on
the calling thread (:func:`~repro.asynciter.pump.drive`): exactly one
attempt, no retry.  Queries run on their engine's pump.
"""

from repro.asynciter.pump import drive
from repro.util.errors import RequestTimeoutError
from repro.web.cache import ResultCache
from repro.web.faults import HANG, OUTAGE


class SearchClient:
    """Latency-charging, optionally caching access to one engine.

    ``page_size`` models result pagination: engines of the era returned
    ~10 hits per response, so "retrieving all URLs for a given search
    expression could be extremely expensive (requiring many additional
    network requests beyond the initial search)" (paper Section 3).  A
    ranked search for *limit* hits costs ``ceil(limit / page_size)``
    sequential round trips; counts cost one.

    ``faults`` is an optional :class:`~repro.web.faults.FaultModel`.
    """

    def __init__(self, engine, latency=None, cache=None, page_size=10, faults=None, obs=None):
        if page_size < 1:
            raise ValueError("page size must be positive")
        self.engine = engine
        self.latency = latency
        self.cache = cache
        self.page_size = page_size
        self.faults = faults
        self.obs = obs  # optional repro.obs.Observability bundle
        self.requests_sent = 0  # actual (non-cache-hit) request round trips

    @property
    def name(self):
        return self.engine.name

    # -- blocking conveniences ----------------------------------------------------

    def count(self, expr_text):
        """The cached count, or one :meth:`count_async` attempt run here."""
        cached = self.probe("count", expr_text)
        return cached if cached is not None else drive(self.count_async(expr_text))

    def search(self, expr_text, limit):
        """The cached hits, or one :meth:`search_async` attempt run here."""
        cached = self.probe("search", expr_text, limit)
        if cached is not None:
            return cached
        return drive(self.search_async(expr_text, limit))

    # -- one attempt of one request -------------------------------------------------

    def count_async(self, expr_text, attempt=0):
        """One *attempt* of a count, as a generator (the pump retries)."""
        return self._attempt("count", expr_text, None, attempt)

    def search_async(self, expr_text, limit, attempt=0):
        """One *attempt* of a ranked search, as a generator (the pump retries)."""
        return self._attempt("search", expr_text, limit, attempt)

    def _attempt(self, kind, expr_text, limit, attempt):
        result = yield from self._request(kind, expr_text, limit, attempt)
        if self.cache is not None:
            self.cache.put(ResultCache.key(self.engine.name, kind, expr_text, limit), result)
        return result

    def _request(self, kind, expr_text, limit, attempt):
        """The network half of one attempt: a fault, or pages then compute."""
        destination = self.engine.name
        fault = None
        if self.faults is not None:
            fault = self.faults.fault_for(destination, expr_text, attempt)
        if fault is not None:
            if fault.kind == OUTAGE:
                raise fault.error  # connection refused: no round trip charged
            # The request went out: a transient or hard fault comes back
            # after one round trip, a hung one never does.
            seconds, error = self._round_trip(destination, expr_text), fault.error
            if fault.kind == HANG:
                seconds = fault.hang_seconds
                error = RequestTimeoutError(
                    "request to {!r} for {!r} hung (gave up after {:.3f}s)".format(
                        destination, expr_text, seconds
                    )
                )
            yield seconds
            raise error
        # Result pages arrive sequentially: page k+1 cannot be requested
        # before page k's response names it.
        pages = 1 if kind == "count" else max(1, -(-limit // self.page_size))
        for _ in range(pages):
            yield self._round_trip(destination, expr_text)  # 0 s too: it settles at a wait
        if kind == "count":
            return self.engine.count(expr_text)
        return self.engine.search(expr_text, limit)

    def _round_trip(self, destination, expr_text):
        """Count one round trip; returns the seconds it takes."""
        self.requests_sent += 1
        if self.obs is not None:
            self.obs.metrics.inc("web.round_trips", engine=destination)
        if self.latency is None:
            return 0.0
        return self.latency.delay(destination, expr_text)

    # -- the cache ----------------------------------------------------------------

    def probe(self, kind, expr_text, limit=None):
        """What the cache holds for one request, without any I/O.

        The value, or ``None`` (a miss, or no cache).  The only cache
        read of a request: a miss here is the miss of record, and the
        attempt that follows only writes.
        """
        if self.cache is None:
            return None
        return self.cache.lookup(ResultCache.key(self.engine.name, kind, expr_text, limit))
