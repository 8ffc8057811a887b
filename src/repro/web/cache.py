"""Multi-tier search-result caching.

The paper notes (citing Hellerstein & Naughton [HN96]) that caching is
"very important" for plans that would otherwise re-issue identical
external calls — e.g. its Figure 7 plan sends |R| identical searches per
Sig.  This module grew from a single bounded LRU into a small caching
subsystem (DESIGN.md §11):

- :class:`ResultCache` — the shared in-memory LRU tier.  Entries carry a
  store timestamp on an injectable :class:`~repro.util.timing.Clock`, so
  a :class:`CachePolicy` can give each request *kind* (``count`` /
  ``search`` / ``fetch``) its own TTL, a serve-stale window
  (stale-while-revalidate-lite), and a shorter *negative* TTL for empty
  results and cached failures.  Hit/miss/stale/evict counters live on a
  :class:`~repro.obs.metrics.MetricsRegistry` (a private one by default;
  an engine re-binds the cache onto its own registry so ``stats()`` and
  ``metrics_snapshot()`` can never disagree).
- :class:`DiskCacheTier` — an optional persistent tier: pickle payloads
  written atomically (temp file + ``os.replace``) under versioned,
  hashed keys, validated on read so a format bump or hash collision can
  never resurrect a wrong value.
- :class:`TieredResultCache` — the stack: the shared memory tier over
  the disk tier, with read-promotion upward and write-through downward.

All tiers speak the same protocol (``lookup``/``get``/``put``/
``put_failure``/``stats``), and are shared by the synchronous client,
the asynchronous request pump path, and the fetch service, so both
execution modes benefit equally.  The *coalescing* of concurrent
identical in-flight calls — which a completed-results cache cannot catch
— lives in :class:`~repro.asynciter.pump.RequestPump` (single-flight)
and :class:`~repro.asynciter.context.AsyncContext` (per-query dedup).
"""

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import CACHE_EVICT, CACHE_HIT, CACHE_MISS, CACHE_STALE
from repro.util.timing import resolve_clock

#: Version stamp for persisted cache payloads.  Bump when the entry
#: format (or the semantics of cached values) changes: the disk tier
#: silently treats any other version as a miss, so stale-format files
#: age out instead of poisoning reads.
CACHE_FORMAT_VERSION = 1

#: Lookup statuses.
FRESH = "fresh"  # within TTL
STALE = "stale"  # past TTL but within the serve-stale window
NEGATIVE = "negative"  # a cached failure record
MISS = "miss"  # absent, expired, or unusable


class CachedFailure:
    """The value stored for a negatively-cached *failure*.

    Carries enough to replay a faithful error (type name + message)
    while staying trivially picklable for the disk tier.
    """

    __slots__ = ("error_type", "message")

    def __init__(self, error_type, message):
        self.error_type = error_type
        self.message = message

    def __repr__(self):
        return "CachedFailure({}: {})".format(self.error_type, self.message)


class CacheLookup:
    """Outcome of a tier lookup: a status plus the value (if usable)."""

    __slots__ = ("status", "value", "tier")

    def __init__(self, status, value=None, tier=None):
        self.status = status
        self.value = value
        self.tier = tier

    @property
    def hit(self):
        """True when ``value`` is a usable cached result (fresh or stale)."""
        return self.status in (FRESH, STALE)

    @property
    def failure(self):
        """True when the entry is a negatively-cached failure record."""
        return self.status == NEGATIVE

    def __repr__(self):
        return "CacheLookup({}, tier={})".format(self.status, self.tier)


_MISS = CacheLookup(MISS)


class CachePolicy:
    """Freshness policy: per-kind TTLs, staleness window, negative TTL.

    ``default_ttl``
        Seconds an entry stays fresh (``None`` = never expires — the
        historical unbounded-TTL behaviour, still the default).
    ``ttl_by_kind``
        Overrides per request kind: keys are the second element of a
        cache key (``"count"`` / ``"search"`` / ``"fetch"``), so
        ``WebCount`` answers can age out faster than page fetches.
    ``max_staleness``
        Serve-stale window: for ``ttl <= age < ttl + max_staleness`` the
        entry is still served (status :data:`STALE`, counted under
        ``cache.stale``) so hot keys keep answering while a refresh is
        due; past the window the entry is evicted and the lookup misses.
    ``negative_ttl``
        When set, *empty* results and failure records are cached for
        this (typically much shorter) duration instead — transient
        failures and empty result pages should not be pinned for the
        full positive TTL.  ``None`` disables failure caching entirely
        (empty results then age like any other value).
    """

    __slots__ = ("default_ttl", "ttl_by_kind", "max_staleness", "negative_ttl")

    def __init__(
        self,
        default_ttl=None,
        ttl_by_kind=None,
        max_staleness=0.0,
        negative_ttl=None,
    ):
        if max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        if negative_ttl is not None and negative_ttl < 0:
            raise ValueError("negative_ttl must be >= 0 (or None)")
        self.default_ttl = default_ttl
        self.ttl_by_kind = dict(ttl_by_kind or {})
        self.max_staleness = max_staleness
        self.negative_ttl = negative_ttl

    def ttl_for(self, kind):
        return self.ttl_by_kind.get(kind, self.default_ttl)

    @staticmethod
    def kind_of(key):
        """The request kind encoded in a cache key (or ``None``)."""
        if isinstance(key, tuple) and len(key) >= 2:
            return key[1]
        return None

    def classify(self, entry, kind, now):
        """One entry's status at time *now*: FRESH/STALE/NEGATIVE/MISS.

        Boundary semantics (pinned by the TTL unit tests): an entry is
        fresh strictly *before* ``stored_at + ttl``, stale from exactly
        ``ttl`` up to (exclusive) ``ttl + max_staleness``, and expired
        from exactly ``ttl + max_staleness`` on.  Negative entries get
        no serve-stale window.
        """
        failure = isinstance(entry.value, CachedFailure)
        if entry.negative:
            ttl = self.negative_ttl
            if ttl is None:
                # Negative caching switched off after the entry was
                # stored: treat records as unusable, plain empties as
                # ordinary values.
                if failure:
                    return MISS
                ttl = self.ttl_for(kind)
        else:
            ttl = self.ttl_for(kind)
        status = NEGATIVE if failure else FRESH
        if ttl is None:
            return status
        age = now - entry.stored_at
        if age < ttl:
            return status
        if not entry.negative and age < ttl + self.max_staleness:
            return STALE
        return MISS

    def __repr__(self):
        return (
            "CachePolicy(default_ttl={!r}, ttl_by_kind={!r}, "
            "max_staleness={!r}, negative_ttl={!r})".format(
                self.default_ttl,
                self.ttl_by_kind,
                self.max_staleness,
                self.negative_ttl,
            )
        )


#: The historical behaviour: nothing ever expires, no negative caching.
DEFAULT_POLICY = CachePolicy()


class _Entry:
    __slots__ = ("value", "stored_at", "negative")

    def __init__(self, value, stored_at, negative=False):
        self.value = value
        self.stored_at = stored_at
        self.negative = negative


def _is_empty_result(value):
    """True for result payloads negative caching treats as 'empty'."""
    return isinstance(value, (list, tuple, dict, set)) and len(value) == 0


class _TierTelemetry:
    """Shared counter/trace plumbing for all tiers.

    Counters are ``cache.{hit,miss,stale,evict,store}`` labelled by
    ``tier``; the registry is private by default and re-bindable via
    :meth:`attach_observability` (existing counts migrate, so a cache
    wired into an engine's registry after warm-up stays consistent).
    """

    _COUNTERS = ("cache.hit", "cache.miss", "cache.stale", "cache.evict", "cache.store")

    def __init__(self, tier, metrics=None, tracer=None):
        self.tier = tier
        self.tracer = tracer
        self._bind(metrics if metrics is not None else MetricsRegistry())

    def _bind(self, metrics):
        """Look the tier's counters up once per registry, not per lookup."""
        self.metrics = metrics
        self._handles = {
            name: metrics.counter(name, tier=self.tier) for name in self._COUNTERS
        }

    def count(self, name, amount=1):
        self._handles[name].inc(amount)

    def value(self, name):
        return self._handles[name].value

    def trace(self, event, key, **args):
        tracer = self.tracer
        if tracer is not None:
            destination = None
            if isinstance(key, tuple) and key:
                destination = str(key[0])
            tracer.emit(
                event, destination=destination, tier=self.tier, key=str(key), **args
            )

    def attach_observability(self, metrics=None, tracer=None):
        if metrics is not None and metrics is not self.metrics:
            moved = {name: self.value(name) for name in self._COUNTERS}
            self._bind(metrics)
            for name, amount in moved.items():
                if amount:
                    self.count(name, amount)
        if tracer is not None:
            self.tracer = tracer


class ResultCache:
    """The shared in-memory tier: a bounded LRU with TTL + staleness.

    Backwards compatible with the original 52-line cache: ``get``/
    ``put``/``stats()``/``hits``/``misses`` keep their exact shapes, and
    the default :class:`CachePolicy` never expires anything.  New
    surface: :meth:`lookup` (status-carrying), :meth:`put_failure`
    (negative caching), an injectable ``clock``, and metrics-backed
    counters (the hit/miss fields used to be racy-by-design plain ints;
    they are now views over :class:`~repro.obs.metrics.MetricsRegistry`
    counters, so ``stats()`` and an engine's ``metrics_snapshot()``
    read the same storage).
    """

    tier_name = "memory"

    def __init__(
        self, capacity=None, policy=None, clock=None, metrics=None, tracer=None
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("cache capacity must be positive (or None)")
        self.capacity = capacity
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self.clock = resolve_clock(clock)
        self.telemetry = _TierTelemetry(self.tier_name, metrics, tracer)
        self._lock = threading.Lock()
        self._entries = OrderedDict()

    # -- legacy counter surface ----------------------------------------------

    @property
    def metrics(self):
        return self.telemetry.metrics

    @property
    def hits(self):
        """Value-returning lookups (fresh + stale serves)."""
        return self.telemetry.value("cache.hit") + self.telemetry.value("cache.stale")

    @property
    def misses(self):
        return self.telemetry.value("cache.miss")

    @property
    def stale_hits(self):
        return self.telemetry.value("cache.stale")

    @property
    def evictions(self):
        return self.telemetry.value("cache.evict")

    @staticmethod
    def key(engine_name, kind, expr_text, limit=None):
        return (engine_name, kind, expr_text, limit)

    # -- lookups ---------------------------------------------------------------

    def lookup(self, key):
        """Status-carrying lookup; counts hit/miss/stale and evicts lazily."""
        now = self.clock.now()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                status = MISS
            else:
                status = self.policy.classify(entry, CachePolicy.kind_of(key), now)
                if status == MISS:
                    del self._entries[key]  # expired: lazy eviction
                else:
                    self._entries.move_to_end(key)
            value = entry.value if (entry is not None and status != MISS) else None
        if status == FRESH or status == NEGATIVE:
            self.telemetry.count("cache.hit")
            self.telemetry.trace(CACHE_HIT, key, status=status)
        elif status == STALE:
            self.telemetry.count("cache.stale")
            self.telemetry.trace(CACHE_STALE, key)
        else:
            if entry is not None:
                self.telemetry.count("cache.evict")
                self.telemetry.trace(CACHE_EVICT, key, reason="expired")
            self.telemetry.count("cache.miss")
            self.telemetry.trace(CACHE_MISS, key)
        if status == MISS:
            return _MISS
        return CacheLookup(status, value, tier=self.tier_name)

    def get(self, key):
        """Return the cached value or ``None`` (misses are counted).

        The historical surface: failure records read as misses here —
        only :meth:`lookup` callers opt into negative-result replay.
        """
        found = self.lookup(key)
        if found.hit:
            return found.value
        return None

    # -- stores ---------------------------------------------------------------

    def put(self, key, value):
        negative = (
            self.policy.negative_ttl is not None and _is_empty_result(value)
        )
        self._store(key, value, negative)

    def put_failure(self, key, error):
        """Negatively cache a failed request (no-op without a negative TTL)."""
        if self.policy.negative_ttl is None:
            return False
        self._store(
            key, CachedFailure(type(error).__name__, str(error)), negative=True
        )
        return True

    def _store(self, key, value, negative):
        evicted = 0
        with self._lock:
            self._entries[key] = _Entry(value, self.clock.now(), negative)
            self._entries.move_to_end(key)
            if self.capacity is not None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    evicted += 1
        self.telemetry.count("cache.store")
        if evicted:
            self.telemetry.count("cache.evict", evicted)
            self.telemetry.trace(CACHE_EVICT, key, reason="capacity", count=evicted)

    # -- maintenance -----------------------------------------------------------

    def purge_expired(self):
        """Eagerly drop every expired entry; returns the count removed."""
        now = self.clock.now()
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if self.policy.classify(entry, CachePolicy.kind_of(key), now) == MISS
            ]
            for key in doomed:
                del self._entries[key]
        if doomed:
            self.telemetry.count("cache.evict", len(doomed))
        return len(doomed)

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def clear(self):
        with self._lock:
            self._entries.clear()

    # -- statistics ------------------------------------------------------------

    def stats(self):
        """The historical three-field shape (regression-pinned)."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}

    def detailed_stats(self):
        """Everything: per-outcome counters plus the legacy fields."""
        payload = self.stats()
        payload.update(
            {
                "stale_hits": self.stale_hits,
                "evictions": self.evictions,
                "stores": self.telemetry.value("cache.store"),
                "hit_ratio": self.hit_ratio(),
                "tier": self.tier_name,
            }
        )
        return payload

    def hit_ratio(self):
        """Observed hit fraction in [0, 1] (0.0 before any traffic)."""
        hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0

    def attach_observability(self, metrics=None, tracer=None):
        """Re-bind counters onto an engine's registry (counts migrate)."""
        self.telemetry.attach_observability(metrics, tracer)


class DiskCacheTier:
    """Persistent cache tier: one pickle file per key, written atomically.

    Keys are hashed (SHA-256 over the repr plus the format version) into
    flat filenames; each payload embeds the format version and the full
    key repr, both verified on read, so hash collisions and format bumps
    degrade to misses rather than wrong answers.  Writes go through a
    temp file in the same directory plus ``os.replace``, so a reader can
    never observe a torn entry and a crash mid-write leaves the previous
    value intact.
    """

    tier_name = "disk"
    _SUFFIX = ".wsqc"

    def __init__(self, path, policy=None, clock=None, metrics=None, tracer=None):
        self.path = str(path)
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self.clock = resolve_clock(clock)
        self.telemetry = _TierTelemetry(self.tier_name, metrics, tracer)
        os.makedirs(self.path, exist_ok=True)

    @property
    def metrics(self):
        return self.telemetry.metrics

    @property
    def hits(self):
        return self.telemetry.value("cache.hit") + self.telemetry.value("cache.stale")

    @property
    def misses(self):
        return self.telemetry.value("cache.miss")

    def _path_for(self, key):
        digest = hashlib.sha256(
            "v{}:{!r}".format(CACHE_FORMAT_VERSION, key).encode("utf-8")
        ).hexdigest()
        return os.path.join(self.path, digest + self._SUFFIX)

    # -- lookups ---------------------------------------------------------------

    def lookup(self, key):
        path = self._path_for(key)
        payload = None
        try:
            with open(path, "rb") as f:
                payload = pickle.load(f)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            payload = None
        entry = None
        if (
            isinstance(payload, dict)
            and payload.get("version") == CACHE_FORMAT_VERSION
            and payload.get("key") == repr(key)
        ):
            entry = _Entry(
                payload.get("value"),
                payload.get("stored_at", 0.0),
                bool(payload.get("negative", False)),
            )
        if entry is None:
            self.telemetry.count("cache.miss")
            return _MISS
        status = self.policy.classify(
            entry, CachePolicy.kind_of(key), self.clock.now()
        )
        if status == MISS:
            self._unlink(path)
            self.telemetry.count("cache.evict")
            self.telemetry.trace(CACHE_EVICT, key, reason="expired")
            self.telemetry.count("cache.miss")
            self.telemetry.trace(CACHE_MISS, key)
            return _MISS
        if status == STALE:
            self.telemetry.count("cache.stale")
            self.telemetry.trace(CACHE_STALE, key)
        else:
            self.telemetry.count("cache.hit")
            self.telemetry.trace(CACHE_HIT, key, status=status)
        return CacheLookup(status, entry.value, tier=self.tier_name)

    def get(self, key):
        found = self.lookup(key)
        return found.value if found.hit else None

    # -- stores ---------------------------------------------------------------

    def put(self, key, value, negative=None):
        if negative is None:
            negative = (
                self.policy.negative_ttl is not None and _is_empty_result(value)
            )
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "key": repr(key),
            "stored_at": self.clock.now(),
            "negative": bool(negative),
            "value": value,
        }
        try:
            blob = pickle.dumps(payload)
        except Exception:  # noqa: BLE001 - unpicklable values just skip the tier
            return False
        path = self._path_for(key)
        fd, temp_path = tempfile.mkstemp(
            dir=self.path, prefix=".tmp-", suffix=self._SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
            os.replace(temp_path, path)  # atomic on POSIX and Windows
        except OSError:
            self._unlink(temp_path)
            return False
        self.telemetry.count("cache.store")
        return True

    def put_failure(self, key, error):
        if self.policy.negative_ttl is None:
            return False
        return self.put(
            key, CachedFailure(type(error).__name__, str(error)), negative=True
        )

    # -- maintenance -----------------------------------------------------------

    def _files(self):
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        return [n for n in names if n.endswith(self._SUFFIX) and not n.startswith(".")]

    @staticmethod
    def _unlink(path):
        try:
            os.unlink(path)
        except OSError:
            pass

    def __len__(self):
        return len(self._files())

    def clear(self):
        for name in self._files():
            self._unlink(os.path.join(self.path, name))

    def stats(self):
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}

    def detailed_stats(self):
        payload = self.stats()
        payload.update(
            {
                "stale_hits": self.telemetry.value("cache.stale"),
                "evictions": self.telemetry.value("cache.evict"),
                "stores": self.telemetry.value("cache.store"),
                "tier": self.tier_name,
                "path": self.path,
            }
        )
        return payload

    def attach_observability(self, metrics=None, tracer=None):
        self.telemetry.attach_observability(metrics, tracer)


class TieredResultCache:
    """The cache stack: shared memory → disk.

    Reads walk downward and *promote* lower-tier hits upward (a disk hit
    refills the memory LRU).  Writes go through every tier.
    """

    key = staticmethod(ResultCache.key)

    def __init__(
        self,
        capacity=None,
        policy=None,
        disk_path=None,
        clock=None,
        metrics=None,
        tracer=None,
        memory=None,
        disk=None,
    ):
        clock = resolve_clock(clock)
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self.memory = (
            memory
            if memory is not None
            else ResultCache(
                capacity=capacity,
                policy=self.policy,
                clock=clock,
                metrics=metrics,
                tracer=tracer,
            )
        )
        if disk is None and disk_path is not None:
            disk = DiskCacheTier(
                disk_path,
                policy=self.policy,
                clock=clock,
                metrics=metrics if metrics is not None else self.memory.metrics,
                tracer=tracer,
            )
        self.disk = disk

    # -- lookups ---------------------------------------------------------------

    def lookup(self, key):
        found = self.memory.lookup(key)
        if found.hit or found.failure:
            return found
        if self.disk is not None:
            found = self.disk.lookup(key)
            if found.hit or found.failure:
                # Promote: refill the memory LRU so the next reader stays
                # off disk (store the raw value; negativity re-derives).
                if found.failure:
                    self.memory._store(key, found.value, negative=True)
                else:
                    self.memory.put(key, found.value)
                return found
        return _MISS

    def get(self, key):
        found = self.lookup(key)
        return found.value if found.hit else None

    # -- stores ---------------------------------------------------------------

    def put(self, key, value):
        self.memory.put(key, value)
        if self.disk is not None:
            self.disk.put(key, value)

    def put_failure(self, key, error):
        stored = self.memory.put_failure(key, error)
        if self.disk is not None:
            self.disk.put_failure(key, error)
        return stored

    # -- statistics / maintenance ---------------------------------------------

    @property
    def metrics(self):
        return self.memory.metrics

    @property
    def hits(self):
        total = self.memory.hits
        if self.disk is not None:
            total += self.disk.hits
        return total

    @property
    def misses(self):
        """Lookups no tier could serve (the deepest tier's misses)."""
        return self.disk.misses if self.disk is not None else self.memory.misses

    def hit_ratio(self):
        hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0

    def __len__(self):
        return len(self.memory)

    def clear(self):
        self.memory.clear()
        if self.disk is not None:
            self.disk.clear()

    def stats(self):
        return {"hits": self.hits, "misses": self.misses, "size": len(self.memory)}

    def detailed_stats(self):
        payload = self.stats()
        payload["hit_ratio"] = self.hit_ratio()
        payload["tiers"] = {"memory": self.memory.detailed_stats()}
        if self.disk is not None:
            payload["tiers"]["disk"] = self.disk.detailed_stats()
        return payload

    def attach_observability(self, metrics=None, tracer=None):
        self.memory.attach_observability(metrics, tracer)
        if self.disk is not None:
            self.disk.attach_observability(metrics, tracer)


def make_cache(
    tier="memory",
    capacity=None,
    ttl=None,
    max_staleness=0.0,
    negative_ttl=None,
    disk_path=None,
    clock=None,
):
    """Build a cache for a tier name (the CLI / ``$REPRO_CACHE`` entry point).

    ``tier``: ``"off"``/``"none"`` → ``None``; ``"memory"`` → a plain
    :class:`ResultCache`; ``"disk"`` → memory over disk (``disk_path``
    defaults to ``.wsq-cache`` under the working directory).
    """
    if tier in (None, "off", "none", ""):
        return None
    policy = CachePolicy(
        default_ttl=ttl, max_staleness=max_staleness, negative_ttl=negative_ttl
    )
    if tier == "memory":
        return ResultCache(capacity=capacity, policy=policy, clock=clock)
    if tier == "disk":
        return TieredResultCache(
            capacity=capacity,
            policy=policy,
            clock=clock,
            disk_path=disk_path if disk_path is not None else ".wsq-cache",
        )
    raise ValueError(
        "unknown cache tier {!r}; expected off/memory/disk".format(tier)
    )
