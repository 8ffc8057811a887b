"""The simulated World-Wide Web.

WSQ treats a search engine as a black box that accepts a keyword search
expression and returns either a hit count or a ranked URL list.  This
package provides that black box, built from scratch:

- :mod:`repro.web.tokenizer` — text and phrase tokenization.
- :mod:`repro.web.searchexpr` — the engine query language (quoted phrases,
  implicit AND, the ``near`` proximity operator AltaVista supported).
- :mod:`repro.web.index` — positional inverted index with phrase and
  proximity matching.
- :mod:`repro.web.corpus` — deterministic synthetic page generation,
  calibrated (:mod:`repro.web.calibration`) so the paper's published result
  shapes reproduce.
- :mod:`repro.web.engine` — search engines with pluggable ranking
  (:mod:`repro.web.ranking`); two instances ("AV", "Google") rank
  differently so cross-engine agreement is rare, as in the paper's Query 6.
- :mod:`repro.web.latency` / :mod:`repro.web.client` — per-request delay
  models and the search clients the query processor uses.
- :mod:`repro.web.cache` — a search-result cache ([HN96]-style memoization).
- :mod:`repro.web.fetch` — page fetch + link extraction for the crawler
  scenario (paper Section 4.2).
- :mod:`repro.web.world` — bundles corpus, engines, and fetch service.
"""

from repro.web.cache import (
    CachedFailure,
    CacheLookup,
    CachePolicy,
    ResultCache,
    make_cache,
)
from repro.web.client import SearchClient
from repro.web.corpus import Corpus, CorpusConfig, build_corpus
from repro.web.engine import SearchEngine, SearchHit
from repro.web.fetch import FetchService
from repro.web.latency import FixedLatency, UniformLatency, ZeroLatency
from repro.web.world import SimulatedWeb, default_web

__all__ = [
    "CachePolicy",
    "CacheLookup",
    "CachedFailure",
    "Corpus",
    "CorpusConfig",
    "FetchService",
    "FixedLatency",
    "ResultCache",
    "SearchClient",
    "SearchEngine",
    "SearchHit",
    "SimulatedWeb",
    "UniformLatency",
    "ZeroLatency",
    "build_corpus",
    "make_cache",
    "default_web",
]
