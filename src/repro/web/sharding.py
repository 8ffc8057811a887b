"""Sharded search tier: corpus partitions behind a scatter-gather broker.

The monolithic :class:`~repro.web.engine.SearchEngine` answers every
``WebCount``/``WebPages`` probe from one inverted index over the whole
corpus.  This module partitions that corpus into N deterministic shards
(hash-by-doc: ``doc_id % num_shards``) and puts a broker in front:

- :class:`IndexShard` — one partition's documents plus its own
  :class:`~repro.web.index.InvertedIndex`; answers *partial* counts and
  *partial* ranked candidate lists.
- :class:`ShardedSearchEngine` — a drop-in :class:`SearchEngine`
  replacement whose ``count``/``search`` scatter over the shards and
  gather-merge the partials (count summation, top-k merge).

Because term frequencies, phrase positions, and ranking scores are all
functions of a *single* document, partitioning the corpus never changes
any per-document score — so the gather-merge below is **bit-identical**
to the unsharded engine: counts sum exactly (shards partition the doc
space) and the top-k merge sorts by the same ``(-score, url)`` key the
monolith uses, extended with a ``(doc_id, shard_id)`` tie-break so even
a pathological corpus with duplicate score+URL pairs merges
deterministically.

Network behaviour (per-shard latency, faults, breakers, hedging) lives
in :class:`~repro.web.shardclient.ShardedSearchClient`; this module is
the instantaneous compute tier, exactly as ``SearchEngine`` is for the
monolith.
"""

from repro.util.errors import ReproError
from repro.web.engine import SearchEngine, SearchHit
from repro.web.index import InvertedIndex


def shard_of(doc_id, num_shards):
    """The shard owning *doc_id* (deterministic hash-by-doc)."""
    return doc_id % num_shards


def shard_destination(engine_name, shard_id):
    """The per-shard destination name latency/fault/breaker keys use."""
    return "{}:shard{}".format(engine_name, shard_id)


class IndexShard:
    """One corpus partition with its own positional inverted index."""

    def __init__(self, shard_id, corpus, doc_ids):
        self.shard_id = shard_id
        self.corpus = corpus
        self.doc_ids = doc_ids
        self.index = InvertedIndex()
        for doc_id in doc_ids:
            self.index.add_document(doc_id, corpus.document(doc_id).tokens)

    def __len__(self):
        return len(self.doc_ids)

    def count(self, expression, near_window):
        """This shard's share of the total match count."""
        return self.index.count(expression, near_window)

    def search_partials(self, expression, limit, ranking, near_window):
        """The shard's top-*limit* candidates as mergeable partials.

        Returns ``[(neg_score, url, doc_id, shard_id, doc), ...]`` sorted
        best-first.  The global top-*limit* is always contained in the
        union of per-shard top-*limit* lists, so *limit* candidates per
        shard suffice for an exact merge.
        """
        if limit == 0:
            return []
        doc_ids = self.index.matching_documents(expression, near_window)
        occurrence_maps = [
            self.index.phrase_occurrences(p) for p in expression.phrases
        ]
        scored = []
        for doc_id in doc_ids:
            doc = self.corpus.document(doc_id)
            tf = sum(len(occ.get(doc_id, ())) for occ in occurrence_maps)
            scored.append((-ranking(doc, tf), doc.url, doc_id, self.shard_id, doc))
        scored.sort(key=lambda item: item[:4])
        return scored[:limit]


def merge_count_partials(partials):
    """Gather a scattered count: shards partition the docs, so counts sum."""
    return sum(partials)


def merge_search_partials(partials, limit):
    """Gather scattered ranked partials into the global top-*limit*.

    *partials* is an iterable of per-shard candidate lists (see
    :meth:`IndexShard.search_partials`).  The merge key is the
    monolith's ``(-score, url)`` sort extended by ``(doc_id, shard_id)``
    — equal-score/equal-URL candidates (impossible in a well-formed
    corpus, where URLs are unique, but possible in adversarial test
    corpora) still merge deterministically, so scatter-gather output is
    a pure function of the corpus and the query.
    """
    merged = []
    for shard_partials in partials:
        merged.extend(shard_partials)
    merged.sort(key=lambda item: item[:4])
    return [
        SearchHit(doc.url, rank, doc.date)
        for rank, (_, _, _, _, doc) in enumerate(merged[:limit], start=1)
    ]


class ShardedSearchEngine(SearchEngine):
    """Scatter-gather broker over N :class:`IndexShard` partitions.

    A drop-in :class:`SearchEngine`: same constructor surface plus
    ``num_shards``, same ``count``/``search``/``parse``/``stats``
    contract, same results bit-for-bit.  The per-shard compute entry
    points (:meth:`shard_count` / :meth:`shard_search_partials`) are what
    :class:`~repro.web.shardclient.ShardedSearchClient` scatters over —
    one network-priced probe per shard.
    """

    def __init__(
        self,
        name,
        corpus,
        ranking,
        num_shards,
        supports_near=True,
        near_window=None,
    ):
        kwargs = {"supports_near": supports_near}
        if near_window is not None:
            kwargs["near_window"] = near_window
        super().__init__(name, corpus, ranking, **kwargs)
        if num_shards < 1:
            raise ReproError("num_shards must be >= 1")
        self.num_shards = num_shards
        buckets = [[] for _ in range(num_shards)]
        for doc in corpus.documents:
            buckets[shard_of(doc.doc_id, num_shards)].append(doc.doc_id)
        self.shards = [
            IndexShard(shard_id, corpus, doc_ids)
            for shard_id, doc_ids in enumerate(buckets)
        ]
        #: Per-shard probe counters (compute-level; the client layer has
        #: its own network-level accounting).
        self.shard_probes = [0] * num_shards

    # -- per-shard compute (what the broker client scatters) ---------------------

    def shard_count(self, shard_id, expression):
        """One shard's partial count for a parsed *expression*."""
        self.shard_probes[shard_id] += 1
        return self.shards[shard_id].count(expression, self.near_window)

    def shard_search_partials(self, shard_id, expression, limit):
        """One shard's ranked partials for a parsed *expression*."""
        self.shard_probes[shard_id] += 1
        return self.shards[shard_id].search_partials(
            expression, limit, self.ranking, self.near_window
        )

    # -- whole-engine API (gathers locally; used by the sync fallback) -----------

    def count(self, expr_text):
        self.count_queries += 1
        expression = self.parse(expr_text)
        return merge_count_partials(
            self.shard_count(shard_id, expression)
            for shard_id in range(self.num_shards)
        )

    def search(self, expr_text, limit):
        if limit < 0:
            from repro.util.errors import VirtualTableError

            raise VirtualTableError("search limit must be non-negative")
        self.search_queries += 1
        expression = self.parse(expr_text)
        return merge_search_partials(
            (
                self.shard_search_partials(shard_id, expression, limit)
                for shard_id in range(self.num_shards)
            ),
            limit,
        )

    def stats(self):
        payload = super().stats()
        payload["num_shards"] = self.num_shards
        payload["shard_probes"] = list(self.shard_probes)
        return payload

    def __repr__(self):
        return "ShardedSearchEngine({}, {} shards)".format(
            self.name, self.num_shards
        )


def sharded_view(engine, num_shards):
    """A (cached) :class:`ShardedSearchEngine` view over *engine*'s corpus.

    Shard indexes are pure functions of ``(corpus, num_shards)``, and the
    default :class:`~repro.web.world.SimulatedWeb` is process-shared, so
    views are memoized on the engine object — many test engines built
    with ``shards=4`` pay the per-shard index build once.
    """
    if num_shards < 1:
        raise ReproError("num_shards must be >= 1")
    cache = getattr(engine, "_sharded_views", None)
    if cache is None:
        cache = {}
        engine._sharded_views = cache
    view = cache.get(num_shards)
    if view is None:
        view = ShardedSearchEngine(
            engine.name,
            engine.corpus,
            engine.ranking,
            num_shards,
            supports_near=engine.supports_near,
            near_window=engine.near_window,
        )
        cache[num_shards] = view
    return view
