"""Chaos soak: the full robustness matrix must stay logically exact.

One seeded matrix run — faults × cache tiers × coalescing × batch sizes
× deadlines — where every combination must produce the *same rows* as a
clean, featureless run, and must leave the pump with exact accounting:
every registered call settled, no queued remainder, no live flights, no
stranded member futures.  Transient faults are recoverable by retries,
so logical equivalence is the bar, not "mostly works".

A second matrix soaks the *sharded* search tier: with one shard down
the partial gather must deterministically equal the degraded oracle
(live shards only), and with one shard straggling the result must stay
bit-identical to the clean run while hedge accounting balances — all
with the same exact pump accounting at the end.
"""

import itertools

import pytest

from repro.asynciter.resilience import ResiliencePolicy, RetryPolicy
from repro.datasets import load_all
from repro.serve import Deadline
from repro.storage import Database
from repro.web.cache import make_cache
from repro.web.faults import FaultModel
from repro.web.sharding import shard_destination
from repro.wsq import WsqEngine

WSQ_SQL = (
    "Select Name, Count From States, WebCount "
    "Where Name = T1 Order By Count Desc"
)

#: The matrix axes.  Transient faults recover under retry; every cache
#: tier must stay transparent; coalescing and batching must not change
#: results; a generous deadline must be invisible.
FAULT_RATES = (0.0, 0.1)
CACHE_TIERS = ("off", "memory")
SINGLE_FLIGHT = (False, True)
BATCH_SIZES = (1, 16)
DEADLINES = (None, 60.0)

MATRIX = list(
    itertools.product(
        FAULT_RATES, CACHE_TIERS, SINGLE_FLIGHT, BATCH_SIZES, DEADLINES
    )
)


@pytest.fixture(scope="module")
def shared_db():
    return load_all(Database())


@pytest.fixture(scope="module")
def baseline_rows(shared_db):
    engine = WsqEngine(database=shared_db, cache=False)
    return sorted(engine.execute(WSQ_SQL).rows)


def _combo_id(combo):
    fault, tier, coalesce, batch, deadline = combo
    return "fault{}-{}-sf{}-b{}-dl{}".format(
        fault, tier, int(coalesce), batch, deadline
    )


@pytest.mark.parametrize("combo", MATRIX, ids=_combo_id)
def test_matrix_combo_is_logically_exact(combo, shared_db, baseline_rows):
    fault_rate, tier, coalesce, batch_size, deadline_s = combo
    seed = MATRIX.index(combo) + 1  # seeded per combo, stable across runs
    engine = WsqEngine(
        database=shared_db,
        cache=make_cache(tier) if tier != "off" else False,
        faults=(
            FaultModel(seed=seed, transient_rate=fault_rate)
            if fault_rate
            else None
        ),
        # Always set a policy: transients must recover, and every combo
        # gets a dedicated pump so the final accounting is exact.
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=6, base_backoff=0.005, jitter=0.0)
        ),
        single_flight=coalesce,
        batch_size=batch_size,
        # The fault schedule is keyed on the engine destination; the
        # sharded tier has its own matrix below.
        shards=1,
    )
    try:
        for round_index in range(2):  # second round exercises cache hits
            deadline = Deadline(deadline_s) if deadline_s is not None else None
            result = engine.execute(WSQ_SQL, deadline=deadline)
            assert sorted(result.rows) == baseline_rows, (
                "round {} of {} diverged from the clean run".format(
                    round_index, _combo_id(combo)
                )
            )
        _assert_pump_exact(engine)
    finally:
        engine.pump.shutdown()


def _assert_pump_exact(engine):
    # Exact accounting after the soak: everything settled, nothing
    # queued, no live flight or stranded member future.
    assert engine.pump.quiesce(timeout=5.0)
    snap = engine.pump.stats.snapshot()
    settled = snap["completed"] + snap["failed"] + snap["cancelled"]
    assert settled == snap["registered"]
    assert snap["queued"] == 0
    assert snap["in_flight"] == 0
    assert engine.pump._flights == {}
    assert engine.pump._calls == {}


# -- the sharded tier under shard-level chaos ---------------------------------

NUM_SHARDS = 4
DOWN_SHARD = 2
SHARD_CHAOS = ("outage", "straggler")
SHARD_FAULT_RATES = (0.0, 0.05)
SHARD_CACHE_TIERS = ("off", "memory")

SHARD_MATRIX = list(
    itertools.product(SHARD_CHAOS, SHARD_FAULT_RATES, SHARD_CACHE_TIERS)
)


class _StragglerLatency:
    """One shard is consistently slow; hedge replicas answer instantly."""

    def delay(self, destination, expr_text):
        return 0.01 if destination.endswith(":shard0") else 0.0


@pytest.fixture(scope="module")
def down_destinations(shared_db):
    engine = WsqEngine(database=shared_db, cache=False)
    return tuple(
        shard_destination(name, DOWN_SHARD)
        for name in engine.web.engine_names()
    )


@pytest.fixture(scope="module")
def degraded_rows(shared_db, down_destinations):
    """The oracle for outage combos: shards minus the down one, no chaos."""
    engine = WsqEngine(
        database=shared_db,
        cache=False,
        shards=NUM_SHARDS,
        faults=FaultModel(seed=0, outages=down_destinations),
    )
    try:
        return sorted(engine.execute(WSQ_SQL, mode="async").rows)
    finally:
        engine.pump.shutdown()


def _shard_combo_id(combo):
    chaos, fault, tier = combo
    return "{}-fault{}-{}".format(chaos, fault, tier)


@pytest.mark.parametrize("combo", SHARD_MATRIX, ids=_shard_combo_id)
def test_sharded_combo_is_logically_exact(
    combo, shared_db, baseline_rows, degraded_rows, down_destinations
):
    chaos, fault_rate, tier = combo
    seed = 100 + SHARD_MATRIX.index(combo)
    engine = WsqEngine(
        database=shared_db,
        cache=make_cache(tier) if tier != "off" else False,
        shards=NUM_SHARDS,
        latency=_StragglerLatency() if chaos == "straggler" else None,
        faults=FaultModel(
            seed=seed,
            transient_rate=fault_rate,
            outages=down_destinations if chaos == "outage" else (),
        ),
        # A retry re-scatters to every live shard, so keep the attempt
        # budget generous (see the rate/attempt note in test_sharding).
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=10, base_backoff=0.002, jitter=0.0)
        ),
    )
    expected = degraded_rows if chaos == "outage" else baseline_rows
    try:
        for round_index in range(2):
            result = engine.execute(WSQ_SQL, mode="async")
            assert sorted(result.rows) == expected, (
                "round {} of {} diverged".format(
                    round_index, _shard_combo_id(combo)
                )
            )
        destinations = engine.metrics_snapshot()["destinations"]
        for name, stats in destinations.items():
            hedges = stats["hedges"]
            assert hedges["issued"] == hedges["won"] + hedges["lost"]
            assert (
                hedges["cancelled"] + hedges["losers_settled"]
                == hedges["issued"]
            )
        if chaos == "outage":
            probed = [
                stats
                for stats in destinations.values()
                if stats["scatters"] > 0
            ]
            assert probed and all(
                stats["degraded_gathers"] > 0 for stats in probed
            )
        _assert_pump_exact(engine)
    finally:
        engine.pump.shutdown()
