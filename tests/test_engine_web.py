"""Search engines, latency models, clients, cache, fetch service."""

import time

import pytest

from repro.util.errors import VirtualTableError
from repro.web.cache import ResultCache
from repro.web.client import SearchClient
from repro.web.fetch import render_html
from repro.web.latency import FixedLatency, UniformLatency, ZeroLatency


class TestSearchEngine:
    def test_count_deterministic(self, web):
        av = web.engine("AV")
        assert av.count('"California"') == av.count('"California"')

    def test_search_ranks_start_at_one(self, web):
        hits = web.engine("AV").search('"Wyoming"', 5)
        assert [h.rank for h in hits] == [1, 2, 3, 4, 5]

    def test_search_limit_respected(self, web):
        assert len(web.engine("AV").search('"California"', 3)) == 3

    def test_search_zero_limit(self, web):
        assert web.engine("AV").search('"California"', 0) == []

    def test_negative_limit_rejected(self, web):
        with pytest.raises(VirtualTableError):
            web.engine("AV").search('"x"', -1)

    def test_engines_rank_differently(self, web):
        av = [h.url for h in web.engine("AV").search('"California"', 10)]
        google = [h.url for h in web.engine("Google").search('"California"', 10)]
        assert av != google

    def test_google_rejects_near(self, web):
        with pytest.raises(VirtualTableError, match="near"):
            web.engine("Google").count('"a" near "b"')

    def test_google_plain_conjunction_ok(self, web):
        assert web.engine("Google").count('"Colorado" "four corners"') > 0

    def test_unknown_engine(self, web):
        with pytest.raises(KeyError):
            web.engine("AskJeeves")

    def test_stats_counters(self, small_web):
        engine = small_web.engine("AV")
        before = engine.stats()["count_queries"]
        engine.count('"utah"')
        assert engine.stats()["count_queries"] == before + 1

    def test_no_results_for_gibberish(self, web):
        assert web.engine("AV").count('"zzyzzxqq"') == 0
        assert web.engine("AV").search('"zzyzzxqq"', 5) == []


class TestLatencyModels:
    def test_zero(self):
        assert ZeroLatency().delay("AV", "x") == 0.0

    def test_fixed(self):
        assert FixedLatency(0.5).delay("AV", "x") == 0.5

    def test_fixed_negative_rejected(self):
        with pytest.raises(ValueError):
            FixedLatency(-1)

    def test_uniform_deterministic_per_request(self):
        model = UniformLatency(0.01, 0.05)
        assert model.delay("AV", "q") == model.delay("AV", "q")

    def test_uniform_varies_by_request(self):
        model = UniformLatency(0.01, 0.05)
        delays = {model.delay("AV", "q{}".format(i)) for i in range(20)}
        assert len(delays) > 10

    def test_uniform_bounds(self):
        model = UniformLatency(0.01, 0.05)
        for i in range(50):
            assert 0.01 <= model.delay("AV", str(i)) < 0.05

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformLatency(0.05, 0.01)


class TestSearchClient:
    def test_sync_count_charges_latency(self, web):
        client = SearchClient(web.engine("AV"), latency=FixedLatency(0.02))
        started = time.perf_counter()
        client.count('"Utah"')
        assert time.perf_counter() - started >= 0.02

    def test_cache_hit_skips_latency(self, web):
        cache = ResultCache()
        client = SearchClient(web.engine("AV"), latency=FixedLatency(0.05), cache=cache)
        first = client.count('"Utah"')
        started = time.perf_counter()
        second = client.count('"Utah"')
        assert time.perf_counter() - started < 0.04
        assert first == second
        assert cache.hits == 1
        assert client.requests_sent == 1

    def test_search_cached_by_limit(self, web):
        cache = ResultCache()
        client = SearchClient(web.engine("AV"), cache=cache)
        client.search('"Utah"', 3)
        client.search('"Utah"', 5)  # different limit: not a hit
        assert cache.hits == 0
        client.search('"Utah"', 3)
        assert cache.hits == 1

    def test_async_equals_sync(self, web):
        import asyncio

        client = SearchClient(web.engine("AV"))
        sync_result = client.count('"Utah"')
        async_result = asyncio.run(client.count_async('"Utah"'))
        assert sync_result == async_result
        sync_hits = client.search('"Utah"', 4)
        async_hits = asyncio.run(client.search_async('"Utah"', 4))
        assert sync_hits == async_hits


class TestResultCache:
    def test_lru_capacity(self):
        cache = ResultCache(capacity=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.lookup(("a",))  # refresh a
        cache.put(("c",), 3)  # evicts b
        assert cache.lookup(("b",)).value is None
        assert cache.lookup(("a",)).value == 1
        assert len(cache) == 2

    def test_stats(self):
        cache = ResultCache()
        cache.lookup(("missing",))
        cache.put(("k",), "v")
        cache.lookup(("k",))
        stats = cache.detailed_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 1, 1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_clear(self):
        cache = ResultCache()
        cache.put(("k",), 1)
        cache.clear()
        assert len(cache) == 0


class TestFetchService:
    def test_fetch_known_page(self, small_web):
        doc = small_web.corpus.documents[0]
        service = small_web.fetch_service()
        result = service.fetch(doc.url)
        assert result.status == 200
        assert result.length > 0
        assert result.date == doc.date
        assert result.links == list(doc.links)

    def test_fetch_unknown_page_404(self, small_web):
        result = small_web.fetch_service().fetch("www.no-such-host.com/x.html")
        assert result.status == 404
        assert result.length == 0
        assert result.links == []

    def test_render_html_contains_links(self, small_web):
        doc = next(d for d in small_web.corpus.documents if d.links)
        html = render_html(doc)
        assert "<title>" in html
        for link in doc.links:
            assert link in html

    def test_fetch_async_equals_sync(self, small_web):
        import asyncio

        doc = small_web.corpus.documents[1]
        service = small_web.fetch_service()
        sync_result = service.fetch(doc.url)
        async_result = asyncio.run(service.fetch_async(doc.url))
        assert sync_result.length == async_result.length

    def test_fetch_cache(self, small_web):
        cache = ResultCache()
        service = small_web.fetch_service(cache=cache)
        url = small_web.corpus.documents[2].url
        service.fetch(url)
        service.fetch(url)
        assert cache.hits == 1
        assert service.requests_sent == 1


class TestPagination:
    """Result pages cost one round trip each (paper Section 3)."""

    def test_search_pages_counted(self, web):
        client = SearchClient(web.engine("AV"), page_size=10)
        client.search('"California"', 19)  # the default Rank < 20 guard
        assert client.requests_sent == 2

    def test_single_page_for_small_limits(self, web):
        client = SearchClient(web.engine("AV"), page_size=10)
        client.search('"California"', 3)
        assert client.requests_sent == 1

    def test_count_is_one_request(self, web):
        client = SearchClient(web.engine("AV"), page_size=10)
        client.count('"California"')
        assert client.requests_sent == 1

    def test_latency_scales_with_pages(self, web):
        client = SearchClient(
            web.engine("AV"), latency=FixedLatency(0.01), page_size=5
        )
        started = time.perf_counter()
        client.search('"California"', 15)  # 3 pages
        assert time.perf_counter() - started >= 0.03

    def test_async_pagination_matches_sync(self, web):
        import asyncio

        client = SearchClient(web.engine("AV"), page_size=5)
        sync_hits = client.search('"Wyoming"', 12)
        async_hits = asyncio.run(client.search_async('"Wyoming"', 12))
        assert sync_hits == async_hits
        assert client.requests_sent == 6  # 3 pages each

    def test_invalid_page_size(self, web):
        with pytest.raises(ValueError):
            SearchClient(web.engine("AV"), page_size=0)
