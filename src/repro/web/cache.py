"""The search-result cache.

The paper notes (citing Hellerstein & Naughton [HN96]) that caching is
"very important" for plans that would otherwise re-issue identical
external calls — e.g. its Figure 7 plan sends |R| identical searches per
Sig.  :class:`ResultCache` is that cache (DESIGN.md §11): a bounded LRU
whose entries carry a store time on an injectable
:class:`~repro.util.timing.Clock`, so a :class:`CachePolicy` can give
each request kind its own TTL, a serve-stale window and a shorter
*negative* TTL for empty results and cached failures.  With ``path`` it
also persists every store, one file per key.  One cache serves the
client, the request pump and the fetch service in both execution modes;
coalescing identical *in-flight* calls is the pump's job (single-flight).
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
#: format (or the semantics of cached values) changes: a file of any
#: other version reads as a miss, so stale-format files age out instead
#: of poisoning reads.
CACHE_FORMAT_VERSION = 1

#: Lookup statuses.
FRESH = "fresh"  # within TTL
STALE = "stale"  # past TTL but within the serve-stale window
NEGATIVE = "negative"  # a cached failure record
MISS = "miss"  # absent, expired, or unusable

_SUFFIX = ".wsqc"
_COUNTERS = ("cache.hit", "cache.miss", "cache.stale", "cache.evict", "cache.store")


class CachedFailure:
    """The value stored for a negatively-cached *failure*.

    Carries enough to replay a faithful error (type name + message)
    while staying trivially picklable for a persisted cache.
    """

    __slots__ = ("error_type", "message")

    def __init__(self, error_type, message):
        self.error_type = error_type
        self.message = message

    def __repr__(self):
        return "CachedFailure({}: {})".format(self.error_type, self.message)


class CacheLookup:
    """Outcome of a lookup: a status plus the value (if usable)."""

    __slots__ = ("status", "value")

    def __init__(self, status, value=None):
        self.status = status
        self.value = value

    @property
    def hit(self):
        """True when ``value`` is a usable cached result (fresh or stale)."""
        return self.status in (FRESH, STALE)

    @property
    def failure(self):
        """True when the entry is a negatively-cached failure record."""
        return self.status == NEGATIVE

    def __repr__(self):
        return "CacheLookup({})".format(self.status)


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


def _unlink(path):
    try:
        os.unlink(path)
    except OSError:
        pass


class ResultCache:
    """A bounded LRU with TTL + staleness, optionally persisted to *path*.

    :meth:`lookup` is the one read: it counts exactly one of
    ``cache.hit``/``cache.stale``/``cache.miss`` and traces the matching
    event.  :meth:`put` and :meth:`put_failure` (negative caching) are
    the writes.  ``hits``/``misses`` are views over the registry's
    counters, so :meth:`detailed_stats` and an engine's
    ``metrics_snapshot()`` read the same storage.

    With ``path``, each store is also written to one file per key (see
    the module docstring); an expired entry is dropped from memory and
    its file alike.
    """

    def __init__(
        self, capacity=None, policy=None, clock=None, metrics=None, tracer=None, path=None
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("cache capacity must be positive (or None)")
        self.capacity = capacity
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self.clock = resolve_clock(clock)
        self.tracer = tracer
        self.path = None if path is None else str(path)
        if self.path is not None:
            os.makedirs(self.path, exist_ok=True)
        self._lock = threading.Lock()
        self._entries = OrderedDict()
        self._bind(metrics if metrics is not None else MetricsRegistry())

    def _bind(self, metrics):
        """Look the counters up once per registry, not per lookup."""
        self.metrics = metrics
        self._counters = tuple(metrics.counter(name) for name in _COUNTERS)
        self._hit, self._miss, self._stale, self._evict, self._stored = self._counters

    @property
    def hits(self):
        """Value-returning lookups (fresh + stale serves)."""
        return self._hit.value + self._stale.value

    @property
    def misses(self):
        return self._miss.value

    @staticmethod
    def key(engine_name, kind, expr_text, limit=None):
        return (engine_name, kind, expr_text, limit)

    # -- the read ---------------------------------------------------------------

    def lookup(self, key):
        """Status-carrying lookup; expired entries are evicted lazily."""
        now = self.clock.now()
        kind = CachePolicy.kind_of(key)
        status = MISS
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                status = self.policy.classify(entry, kind, now)
                if status == MISS:
                    del self._entries[key]
                else:
                    self._entries.move_to_end(key)
        if entry is None and self.path is not None:
            entry = self._read(key)
            if entry is not None:
                status = self.policy.classify(entry, kind, now)
                if status != MISS:
                    self._admit(key, entry, keep_existing=True)
        traced = self.tracer is not None
        if status != MISS:
            stale = status == STALE
            (self._stale if stale else self._hit).inc()
            if traced:
                self._trace(CACHE_STALE if stale else CACHE_HIT, key, status=status)
            return CacheLookup(status, entry.value)
        if entry is not None:  # expired: drop its file too
            if self.path is not None:
                _unlink(self._file(key))
            self._evict.inc()
            if traced:
                self._trace(CACHE_EVICT, key, reason="expired")
        self._miss.inc()
        if traced:
            self._trace(CACHE_MISS, key)
        return _MISS

    def _trace(self, event, key, **args):
        destination = str(key[0]) if isinstance(key, tuple) and key else None
        self.tracer.emit(event, destination=destination, key=str(key), **args)

    # -- the writes -------------------------------------------------------------

    def put(self, key, value):
        negative = self.policy.negative_ttl is not None and _is_empty_result(value)
        self._store(key, value, negative)

    def put_failure(self, key, error):
        """Negatively cache a failed request (no-op without a negative TTL)."""
        if self.policy.negative_ttl is None:
            return False
        self._store(key, CachedFailure(type(error).__name__, str(error)), negative=True)
        return True

    def _store(self, key, value, negative):
        entry = _Entry(value, self.clock.now(), negative)
        self._admit(key, entry)
        self._stored.inc()
        if self.path is not None:
            self._write(key, entry)

    def _admit(self, key, entry, keep_existing=False):
        """Put *entry* at the LRU's hot end, evicting past ``capacity``.

        ``keep_existing`` (a file read) leaves a concurrent store's newer
        entry in place.
        """
        evicted = 0
        with self._lock:
            if keep_existing and key in self._entries:
                return
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if self.capacity is not None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    evicted += 1
        if evicted:
            self._evict.inc(evicted)
            if self.tracer is not None:
                self._trace(CACHE_EVICT, key, reason="capacity", count=evicted)

    # -- persistence ------------------------------------------------------------

    def _file(self, key):
        digest = hashlib.sha256(
            "v{}:{!r}".format(CACHE_FORMAT_VERSION, key).encode("utf-8")
        ).hexdigest()
        return os.path.join(self.path, digest + _SUFFIX)

    def _read(self, key):
        """The entry persisted for *key*, or ``None`` (absent, torn, foreign)."""
        try:
            with open(self._file(key), "rb") as f:
                payload = pickle.load(f)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None
        if (
            isinstance(payload, dict)
            and payload.get("version") == CACHE_FORMAT_VERSION
            and payload.get("key") == repr(key)
        ):
            return _Entry(
                payload.get("value"),
                payload.get("stored_at", 0.0),
                bool(payload.get("negative", False)),
            )
        return None

    def _write(self, key, entry):
        """Persist *entry* atomically; an unpicklable value stays memory-only."""
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "key": repr(key),
            "stored_at": entry.stored_at,
            "negative": bool(entry.negative),
            "value": entry.value,
        }
        try:
            blob = pickle.dumps(payload)
        except Exception:  # noqa: BLE001 - unpicklable values are not persisted
            return
        fd, temp_path = tempfile.mkstemp(dir=self.path, prefix=".tmp-", suffix=_SUFFIX)
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
            os.replace(temp_path, self._file(key))  # atomic on POSIX and Windows
        except OSError:
            _unlink(temp_path)

    # -- maintenance and statistics ----------------------------------------------

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def clear(self):
        """Drop every entry, and every persisted file with it."""
        with self._lock:
            self._entries.clear()
        if self.path is not None:
            try:
                names = os.listdir(self.path)
            except OSError:
                names = []
            for name in names:
                if name.endswith(_SUFFIX) and not name.startswith("."):
                    _unlink(os.path.join(self.path, name))

    def detailed_stats(self):
        """Every counter, the LRU's size, the hit ratio and the path."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self),
            "stale_hits": self._stale.value,
            "evictions": self._evict.value,
            "stores": self._stored.value,
            "hit_ratio": self.hit_ratio(),
            "path": self.path,
        }

    def hit_ratio(self):
        """Observed hit fraction in [0, 1] (0.0 before any traffic)."""
        hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0

    def attach_observability(self, metrics=None, tracer=None):
        """Re-bind counters onto an engine's registry (counts migrate)."""
        if metrics is not None and metrics is not self.metrics:
            moved = [counter.value for counter in self._counters]
            self._bind(metrics)
            for counter, amount in zip(self._counters, moved):
                if amount:
                    counter.inc(amount)
        if tracer is not None:
            self.tracer = tracer


def make_cache(
    tier="memory",
    capacity=None,
    ttl=None,
    max_staleness=0.0,
    negative_ttl=None,
    disk_path=None,
    clock=None,
):
    """Build a cache by name (the CLI / ``$REPRO_CACHE`` entry point).

    ``tier``: ``"off"``/``"none"`` → ``None``; ``"memory"`` → a
    :class:`ResultCache`; ``"disk"`` → one persisted to ``disk_path``
    (default ``.wsq-cache`` under the working directory).
    """
    if tier in (None, "off", "none", ""):
        return None
    if tier not in ("memory", "disk"):
        raise ValueError(
            "unknown cache tier {!r}; expected off/memory/disk".format(tier)
        )
    policy = CachePolicy(
        default_ttl=ttl, max_staleness=max_staleness, negative_ttl=negative_ttl
    )
    return ResultCache(
        capacity=capacity,
        policy=policy,
        clock=clock,
        path=(disk_path or ".wsq-cache") if tier == "disk" else None,
    )
