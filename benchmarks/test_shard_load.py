"""Shard-load benchmark: scatter-gather concurrency and degraded gathers.

Drives a skewed probe workload (zipf-ish head of popular terms plus a
tail) against a 4-shard :class:`~repro.web.shardclient.ShardedSearchClient`
under deterministic per-destination latency, and reports:

- **scatter speedup** — the scatter overlaps the per-shard round trips
  (wall-clock ~max of the shard delays), so the per-shard service time
  it spends (their sum, read from the client's own
  ``request.service_seconds{destination=shard}`` observations) exceeds
  its wall-clock; with 4 shards the ratio must clear 2x;
- **outage survival** — with one shard down, every gather degrades to
  the live shards and the counts match the degraded oracle exactly.

Scale knob (environment): ``SHARD_LOAD_PROBES`` workload size
(default 48).
"""

import os
import time

from repro.obs import Observability
from repro.web.faults import FaultModel
from repro.web.latency import UniformLatency
from repro.web.shardclient import ShardedSearchClient
from repro.web.sharding import shard_destination, sharded_view

NUM_SHARDS = 4
DOWN_SHARD = 2
TOTAL_PROBES = int(os.environ.get("SHARD_LOAD_PROBES", "48"))
SPEEDUP_FLOOR = 2.0
LATENCY = (0.003, 0.009)  # bench band: scaled-down web round trips


def _skewed_workload(engine, total):
    """Zipf-ish probe list: hot head terms dominate, tail fills in."""
    frequency = {}
    for doc in engine.corpus.documents:
        for token in set(doc.tokens):
            frequency[token] = frequency.get(token, 0) + 1
    ranked = sorted(frequency, key=lambda t: (-frequency[t], t))[:12]
    workload = []
    rank = 0
    while len(workload) < total:
        # 1/(rank+1) weighting over the head terms, cycled.
        term = ranked[rank % len(ranked)]
        repeats = max(1, len(ranked) // (rank % len(ranked) + 1) // 2)
        workload.extend('"{}"'.format(term) for _ in range(repeats))
        rank += 1
    return workload[:total]


def _client(view, **kwargs):
    return ShardedSearchClient(view, latency=UniformLatency(*LATENCY), **kwargs)


def _run(client, workload):
    """One blocking count per probe: each scatter goes out through the
    shared request pump and is waited for before the next."""
    return [client.count(expr) for expr in workload]


def test_shard_load(warm_web, capsys):
    engine = warm_web.engine("AV")
    view = sharded_view(engine, NUM_SHARDS)
    workload = _skewed_workload(engine, TOTAL_PROBES)

    # -- scatter-gather speedup: shards serve the sum, the caller waits the max
    obs = Observability.disabled()  # metrics only
    async_client = _client(view, obs=obs)
    started = time.perf_counter()
    async_counts = _run(async_client, workload)
    async_seconds = time.perf_counter() - started
    service_seconds = sum(
        obs.metrics.histogram("request.service_seconds", destination=dest).total
        for dest in async_client.destinations
    )
    speedup = service_seconds / async_seconds if async_seconds else float("inf")

    oracle = [engine.count(expr) for expr in workload]
    assert async_counts == oracle

    # -- one shard down: every gather degrades, counts stay exact -------------
    down = shard_destination(engine.name, DOWN_SHARD)
    faults = FaultModel(seed=7, outages=(down,))
    outage_client = _client(view, faults=faults)
    outage_counts = _run(outage_client, workload)
    degraded_oracle = [
        sum(
            view.shards[i].count(view.parse(expr), view.near_window)
            for i in range(NUM_SHARDS)
            if i != DOWN_SHARD
        )
        for expr in workload
    ]
    assert outage_counts == degraded_oracle
    outage_stats = outage_client.shard_stats()
    assert outage_stats["degraded_gathers"] == len(workload)
    assert outage_stats["per_shard"][down]["degraded"] == len(workload)

    with capsys.disabled():
        print(
            "\nshard load: {} probes x {} shards — per-shard service {:.3f}s "
            "in {:.3f}s of scatter, speedup {:.2f}x (floor {}x)".format(
                len(workload),
                NUM_SHARDS,
                service_seconds,
                async_seconds,
                speedup,
                SPEEDUP_FLOOR,
            )
        )
        print(
            "outage: {} down -> {} degraded gathers, counts exact".format(
                down, outage_stats["degraded_gathers"]
            )
        )

    # Scattering must actually overlap the shard fan-out.
    assert speedup >= SPEEDUP_FLOOR, (
        "scatter-gather speedup {:.2f}x below the {}x floor".format(
            speedup, SPEEDUP_FLOOR
        )
    )
