"""The search-result cache.

The paper notes (citing Hellerstein & Naughton [HN96]) that caching is
"very important" for plans that would otherwise re-issue identical
external calls — e.g. its Figure 7 plan sends |R| identical searches per
Sig.  :class:`ResultCache` is that cache (DESIGN.md §11): a bounded LRU
whose entries carry a store time on an injectable
:class:`~repro.util.timing.Clock`, so one ``ttl`` can age them out.
With ``path`` it also persists every store, one file per key.  One cache
serves the client, the request pump and the fetch service in both
execution modes; only results are cached, never failures.  Coalescing
identical *in-flight* calls is the pump's job (single-flight).
"""

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import CACHE_EVICT, CACHE_HIT, CACHE_MISS
from repro.util.timing import resolve_clock

#: Version stamp for persisted cache payloads.  Bump when the entry
#: format (or the semantics of cached values) changes: a file of any
#: other version reads as a miss, so stale-format files age out instead
#: of poisoning reads.
CACHE_FORMAT_VERSION = 2

_SUFFIX = ".wsqc"
_COUNTERS = ("cache.hit", "cache.miss", "cache.evict", "cache.store")


def check_ttl(ttl):
    """*ttl* if it is ``None`` or a number of seconds >= 0, else ``ValueError``.

    NaN is rejected too: no entry would ever compare fresh under it.
    """
    if ttl is not None and not ttl >= 0:
        raise ValueError("cache ttl must be a number of seconds >= 0, got {!r}".format(ttl))
    return ttl


class _Entry:
    __slots__ = ("value", "stored_at")

    def __init__(self, value, stored_at):
        self.value = value
        self.stored_at = stored_at


def _unlink(path):
    try:
        os.unlink(path)
    except OSError:
        pass


class ResultCache:
    """A bounded LRU whose entries expire after ``ttl``, optionally persisted to *path*.

    ``ttl=None`` keeps entries until evicted for capacity.  An entry is
    fresh strictly before ``stored_at + ttl`` and expired from then on.
    :meth:`lookup` is the one read: it returns the value or ``None`` and
    counts exactly one ``cache.hit`` or ``cache.miss``, tracing the
    matching event.  :meth:`put` is the one write.  ``hits``/``misses``
    are views over the registry's counters, so :meth:`detailed_stats`
    and an engine's ``metrics_snapshot()`` read the same storage.

    With ``path``, each store is also written to one file per key (see
    the module docstring); an expired entry is dropped from memory and
    its file alike.
    """

    def __init__(
        self, capacity=None, ttl=None, clock=None, metrics=None, tracer=None, path=None
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("cache capacity must be positive (or None)")
        self.capacity = capacity
        self.ttl = check_ttl(ttl)
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
        self._hit, self._miss, self._evict, self._stored = self._counters

    @property
    def hits(self):
        return self._hit.value

    @property
    def misses(self):
        return self._miss.value

    @staticmethod
    def key(engine_name, kind, expr_text, limit=None):
        return (engine_name, kind, expr_text, limit)

    def _fresh(self, entry, now):
        return self.ttl is None or now - entry.stored_at < self.ttl

    # -- the read ---------------------------------------------------------------

    def lookup(self, key):
        """The cached value for *key*, or ``None``; expired entries are evicted lazily."""
        now = self.clock.now()
        fresh = False
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                fresh = self._fresh(entry, now)
                if fresh:
                    self._entries.move_to_end(key)
                else:
                    del self._entries[key]
        if entry is None and self.path is not None:
            entry = self._read(key)
            if entry is not None:
                fresh = self._fresh(entry, now)
                if fresh:
                    self._admit(key, entry, keep_existing=True)
        traced = self.tracer is not None
        if fresh:
            self._hit.inc()
            if traced:
                self._trace(CACHE_HIT, key)
            return entry.value
        if entry is not None:  # expired: drop its file too
            if self.path is not None:
                _unlink(self._file(key))
            self._evict.inc()
            if traced:
                self._trace(CACHE_EVICT, key, reason="expired")
        self._miss.inc()
        if traced:
            self._trace(CACHE_MISS, key)
        return None

    def _trace(self, event, key, **args):
        destination = str(key[0]) if isinstance(key, tuple) and key else None
        self.tracer.emit(event, destination=destination, key=str(key), **args)

    # -- the write --------------------------------------------------------------

    def put(self, key, value):
        entry = _Entry(value, self.clock.now())
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
            return _Entry(payload.get("value"), payload.get("stored_at", 0.0))
        return None

    def _write(self, key, entry):
        """Persist *entry* atomically; an unpicklable value stays memory-only."""
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "key": repr(key),
            "stored_at": entry.stored_at,
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


def make_cache(tier="memory", capacity=None, ttl=None, disk_path=None, clock=None):
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
    return ResultCache(
        capacity=capacity,
        ttl=ttl,
        clock=clock,
        path=(disk_path or ".wsq-cache") if tier == "disk" else None,
    )
