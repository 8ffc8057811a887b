"""Sharded scatter-gather search tier: the oracle is the monolith.

Sharding is an implementation detail of the search tier — splitting the
corpus over N shards and merging scattered partials must be
bit-identical to the unsharded engine for every N, in both execution
modes, with and without injected faults.  On top of the oracle:
deterministic merges under score ties, degraded partial gathers when a
shard (or its breaker) is down, hedged-request accounting, and the
``shard.*`` trace taxonomy.
"""

import asyncio

import pytest

from repro.asynciter.resilience import (
    CircuitBreakerConfig,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.datasets import load_all
from repro.obs import Observability
from repro.obs.schema import validate_trace_events
from repro.storage import Database
from repro.util.errors import EngineOutageError, ReproError
from repro.web.faults import FaultModel
from repro.web.sharding import (
    merge_count_partials,
    merge_search_partials,
    shard_destination,
    shard_of,
    sharded_view,
)
from repro.web.shardclient import ShardedSearchClient
from repro.wsq import WsqEngine

SHARD_COUNTS = (1, 2, 4, 7)

COUNT_SQL = (
    "Select Name, Count From States, WebCount "
    "Where Name = T1 Order By Count Desc"
)
PAGES_SQL = (
    "Select Name, URL, Rank From States, WebPages "
    "Where Name = T1 and Rank <= 3"
)


@pytest.fixture(scope="module")
def shared_db():
    return load_all(Database())


# -- the compute tier: ShardedSearchEngine vs the monolith ---------------------


class TestEngineOracle:
    EXPRESSIONS = ('"texas"', '"big bend"', '"austin" "capital"', '"nowhere-term"')

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_counts_match_monolith(self, small_web, num_shards):
        engine = small_web.engine("AV")
        view = sharded_view(engine, num_shards)
        for expr in self.EXPRESSIONS:
            assert view.count(expr) == engine.count(expr)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_search_matches_monolith(self, small_web, num_shards):
        engine = small_web.engine("AV")
        view = sharded_view(engine, num_shards)
        for expr in self.EXPRESSIONS:
            for limit in (1, 3, 10, 100):
                assert view.search(expr, limit) == engine.search(expr, limit)

    def test_shards_partition_the_corpus(self, small_web):
        engine = small_web.engine("AV")
        view = sharded_view(engine, 4)
        owned = [doc_id for shard in view.shards for doc_id in shard.doc_ids]
        assert sorted(owned) == sorted(
            doc.doc_id for doc in engine.corpus.documents
        )
        for shard in view.shards:
            assert all(
                shard_of(doc_id, 4) == shard.shard_id for doc_id in shard.doc_ids
            )

    def test_sharded_view_is_memoized(self, small_web):
        engine = small_web.engine("AV")
        assert sharded_view(engine, 4) is sharded_view(engine, 4)
        assert sharded_view(engine, 4) is not sharded_view(engine, 2)

    def test_stats_report_shards(self, small_web):
        view = sharded_view(small_web.engine("AV"), 3)
        view.count('"texas"')
        stats = view.stats()
        assert stats["num_shards"] == 3
        assert len(stats["shard_probes"]) == 3

    def test_rejects_bad_shard_count(self, small_web):
        with pytest.raises(ReproError):
            sharded_view(small_web.engine("AV"), 0)


# -- merge determinism ---------------------------------------------------------


class _Doc:
    def __init__(self, url, date="2000-01-01"):
        self.url = url
        self.date = date


def _partial(neg_score, url, doc_id, shard_id):
    return (neg_score, url, doc_id, shard_id, _Doc(url))


class TestMergeDeterminism:
    def test_count_merge_sums(self):
        assert merge_count_partials([3, 0, 5]) == 8
        assert merge_count_partials([]) == 0

    def test_equal_scores_break_on_doc_then_shard(self):
        # Same score AND same URL on both candidates: doc id decides.
        a = [_partial(-1.0, "http://x", 10, 0)]
        b = [_partial(-1.0, "http://x", 4, 1)]
        hits = merge_search_partials([a, b], 2)
        # doc 4 (shard 1) sorts before doc 10 (shard 0).
        assert [hit.rank for hit in hits] == [1, 2]
        again = merge_search_partials([b, a], 2)
        assert [hit.url for hit in again] == [hit.url for hit in hits]

    def test_merge_is_input_order_independent(self):
        shard0 = [_partial(-3.0, "http://a", 0, 0), _partial(-1.0, "http://c", 2, 0)]
        shard1 = [_partial(-2.0, "http://b", 1, 1)]
        forward = merge_search_partials([shard0, shard1], 3)
        reverse = merge_search_partials([shard1, shard0], 3)
        assert [h.url for h in forward] == ["http://a", "http://b", "http://c"]
        assert [h.url for h in forward] == [h.url for h in reverse]

    def test_limit_slices_after_global_merge(self):
        shard0 = [_partial(-3.0, "http://a", 0, 0)]
        shard1 = [_partial(-2.0, "http://b", 1, 1)]
        assert [h.url for h in merge_search_partials([shard0, shard1], 1)] == [
            "http://a"
        ]


# -- the engine facade: WsqEngine(shards=N) oracle -----------------------------


class TestWsqOracle:
    @pytest.fixture(scope="class")
    def baseline(self, shared_db):
        engine = WsqEngine(database=shared_db, cache=False)
        return {
            sql: engine.execute(sql, mode="sync").rows
            for sql in (COUNT_SQL, PAGES_SQL)
        }

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("mode", ("sync", "async"))
    @pytest.mark.parametrize("faulty", (False, True), ids=("clean", "faults"))
    def test_sharded_equals_unsharded(
        self, shared_db, baseline, num_shards, mode, faulty
    ):
        # Transient-only faults: every probe eventually succeeds under
        # retry, so the rows must stay exactly the oracle's.
        engine = WsqEngine(
            database=shared_db,
            cache=False,
            shards=num_shards,
            faults=(
                FaultModel(seed=num_shards, transient_rate=0.05)
                if faulty
                else None
            ),
            resilience=(
                # A retry re-scatters to every shard and re-draws each
                # shard's fault, so per-attempt failure probability grows
                # with the shard count — keep the rate low and the
                # attempt budget generous.
                ResiliencePolicy(
                    retry=RetryPolicy(
                        max_attempts=12, base_backoff=0.001, jitter=0.0
                    )
                )
                if faulty
                else None
            ),
        )
        try:
            for sql, expected in baseline.items():
                rows = engine.execute(sql, mode=mode).rows
                assert sorted(rows) == sorted(expected)
        finally:
            if faulty:
                engine.pump.shutdown()

    def test_shards_one_uses_plain_client_and_identical_plans(
        self, shared_db, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)  # "plain" = no env
        plain = WsqEngine(database=shared_db, cache=False)
        pinned = WsqEngine(database=shared_db, cache=False, shards=1)
        assert not hasattr(pinned.clients["AV"], "shard_stats")
        assert type(pinned.clients["AV"]) is type(plain.clients["AV"])
        for form in ("physical", "logical"):
            assert pinned.explain(COUNT_SQL, form=form) == plain.explain(
                COUNT_SQL, form=form
            )

    def test_destinations_in_metrics_snapshot(self, shared_db, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)  # "plain" = no env
        engine = WsqEngine(database=shared_db, cache=False, shards=3)
        engine.execute(COUNT_SQL, mode="sync")
        snapshot = engine.metrics_snapshot()
        assert set(snapshot["destinations"]) == set(engine.clients)
        view = snapshot["destinations"]["AV"]
        assert view["num_shards"] == 3
        assert view["scatters"] > 0
        assert set(view["per_shard"]) == {
            shard_destination("AV", i) for i in range(3)
        }
        plain = WsqEngine(database=shared_db, cache=False)
        assert "destinations" not in plain.metrics_snapshot()

    def test_env_default(self, shared_db, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "5")
        engine = WsqEngine(database=shared_db, cache=False)
        assert engine.config.shards == 5
        assert engine.clients["AV"].num_shards == 5
        monkeypatch.setenv("REPRO_SHARDS", "zero")
        with pytest.raises(ReproError, match="REPRO_SHARDS"):
            WsqEngine(database=shared_db, cache=False)

    def test_shard_trace_events_validate(self, shared_db):
        engine = WsqEngine(
            database=shared_db,
            cache=False,
            shards=2,
            obs=Observability.enabled(),
        )
        try:
            engine.execute(COUNT_SQL, mode="async")
            names = {event.name for event in engine.tracer.events()}
            assert "shard.scatter" in names
            assert "shard.gather" in names
            assert validate_trace_events(engine.tracer.events()) == []
        finally:
            engine.pump.shutdown()


# -- degradation: partial gathers ---------------------------------------------


class TestDegradedGather:
    def _client(self, small_web, faults=None, resilience=None, **kwargs):
        return ShardedSearchClient(
            sharded_view(small_web.engine("AV"), 4),
            faults=faults,
            resilience=resilience,
            **kwargs,
        )

    def test_single_shard_outage_degrades(self, small_web):
        faults = FaultModel(seed=0)
        down = shard_destination("AV", 2)
        faults.begin_outage(down)
        client = self._client(small_web, faults=faults)
        full = self._client(small_web).count('"texas"')
        view = sharded_view(small_web.engine("AV"), 4)
        expression = view.parse('"texas"')
        lost = view.shards[2].count(expression, view.near_window)
        degraded = client.count('"texas"')
        assert degraded == full - lost
        stats = client.shard_stats()
        assert stats["degraded_gathers"] == 1
        assert stats["per_shard"][down]["degraded"] == 1

    def test_async_matches_sync_degradation(self, small_web):
        down = shard_destination("AV", 1)
        results = []
        for runner in ("sync", "async"):
            faults = FaultModel(seed=0)
            faults.begin_outage(down)
            client = self._client(small_web, faults=faults)
            if runner == "sync":
                results.append(client.count('"texas"'))
            else:
                results.append(asyncio.run(client.count_async('"texas"')))
        assert results[0] == results[1]

    def test_all_shards_down_raises(self, small_web):
        faults = FaultModel(seed=0, outages=("AV",))
        client = self._client(small_web, faults=faults)
        with pytest.raises(EngineOutageError):
            client.count('"texas"')

    def test_forced_open_breaker_degrades(self, small_web):
        resilience = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1),
            breaker=CircuitBreakerConfig(failure_threshold=1, recovery_timeout=60.0),
        )
        client = self._client(small_web, resilience=resilience)
        opened = shard_destination("AV", 0)
        breaker = client._breakers[opened]
        breaker.record_failure()  # threshold 1: now open
        assert not breaker.allow()
        full = self._client(small_web).count('"texas"')
        view = sharded_view(small_web.engine("AV"), 4)
        expression = view.parse('"texas"')
        lost = view.shards[0].count(expression, view.near_window)
        assert client.count('"texas"') == full - lost
        stats = client.shard_stats()
        assert stats["per_shard"][opened]["breaker"]["state"] == "open"
        assert stats["degraded_gathers"] == 1

    def test_search_degrades_to_surviving_shards(self, small_web):
        faults = FaultModel(seed=0)
        faults.begin_outage(shard_destination("AV", 3))
        client = self._client(small_web, faults=faults)
        view = sharded_view(small_web.engine("AV"), 4)
        expression = view.parse('"texas"')
        expected = merge_search_partials(
            (
                view.shards[i].search_partials(
                    expression, 5, view.ranking, view.near_window
                )
                for i in range(4)
                if i != 3
            ),
            5,
        )
        assert client.search('"texas"', 5) == expected


# -- hedged requests -----------------------------------------------------------


class _ReplicaLatency:
    """Slow primaries, instant hedge replicas."""

    def __init__(self, slow=0.05):
        self.slow = slow

    def delay(self, destination, expr_text):
        if destination.endswith("~hedge"):
            return 0.0
        return self.slow


class TestHedging:
    def _client(self, small_web, **kwargs):
        return ShardedSearchClient(
            sharded_view(small_web.engine("AV"), 2),
            latency=_ReplicaLatency(),
            hedge_delay=0.005,
            **kwargs,
        )

    def test_hedge_wins_and_accounting_balances(self, small_web):
        client = self._client(small_web)
        expected = sharded_view(small_web.engine("AV"), 2).count('"texas"')
        assert asyncio.run(client.count_async('"texas"')) == expected
        stats = client.shard_stats()
        hedges = stats["hedges"]
        assert hedges["issued"] == 2  # one per straggling shard
        assert hedges["won"] >= 1  # instant replica beats slow primary
        assert hedges["issued"] == hedges["won"] + hedges["lost"]
        assert (
            hedges["cancelled"] + hedges["losers_settled"] == hedges["issued"]
        )

    def test_hedging_never_changes_results(self, small_web):
        hedged = self._client(small_web)
        unhedged = ShardedSearchClient(
            sharded_view(small_web.engine("AV"), 2),
            latency=_ReplicaLatency(slow=0.0),
            hedge=False,
        )
        for expr in ('"texas"', '"austin"'):
            assert asyncio.run(hedged.search_async(expr, 5)) == asyncio.run(
                unhedged.search_async(expr, 5)
            )
        assert unhedged.shard_stats()["hedges"]["issued"] == 0

    def test_hedging_never_changes_outcomes_under_faults(self, small_web):
        # A replica shares its primary's fault draw, so a probe fails (or
        # succeeds) the same whether or not a hedge was in flight — the
        # property that keeps results independent of *when* hedging arms.
        def outcome(client, expr):
            try:
                return asyncio.run(client.count_async(expr))
            except ReproError as exc:
                return type(exc)

        exprs = ['"{}"'.format(t) for t in ("texas", "austin", "dallas", "ohio")]
        outcomes = []
        for hedge in (True, False):
            client = ShardedSearchClient(
                sharded_view(small_web.engine("AV"), 2),
                latency=_ReplicaLatency(slow=0.02),
                faults=FaultModel(seed=4, transient_rate=0.4),
                hedge=hedge,
                hedge_delay=0.002,
            )
            outcomes.append([outcome(client, expr) for expr in exprs])
            if hedge:
                assert client.shard_stats()["hedges"]["issued"] > 0
        assert outcomes[0] == outcomes[1]
        assert any(isinstance(o, type) for o in outcomes[0])  # faults bit
        assert any(isinstance(o, int) for o in outcomes[0])

    def test_calibrated_trigger_needs_samples(self, small_web):
        client = ShardedSearchClient(
            sharded_view(small_web.engine("AV"), 2),
            hedge_min_samples=3,
        )
        dest = shard_destination("AV", 0)
        assert client._hedge_trigger(dest) is None  # no samples yet
        for _ in range(3):
            client._samples[dest].append(0.01)
        assert client._hedge_trigger(dest) == pytest.approx(0.01)

    def test_blocking_count_hedges_like_the_coroutine(self, small_web):
        # One scatter path: a caller that blocks gets the same hedged
        # probes as one that awaits.
        client = self._client(small_web)
        expected = sharded_view(small_web.engine("AV"), 2).count('"texas"')
        assert client.count('"texas"') == expected
        hedges = client.shard_stats()["hedges"]
        assert hedges["issued"] == 2
        assert hedges["issued"] == hedges["won"] + hedges["lost"]
