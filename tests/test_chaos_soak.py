"""Chaos soak: the full robustness matrix must stay logically exact.

One seeded matrix run — faults × cache tiers × coalescing × batch sizes
× deadlines — where every combination must produce the *same rows* as a
clean, featureless run, and must leave the pump with exact accounting:
every registered call settled, no queued remainder, no live flights, no
stranded member futures.  Transient faults are recoverable by retries,
so logical equivalence is the bar, not "mostly works".
"""

import itertools

import pytest

from repro.asynciter.pump import RequestPump
from repro.asynciter.resilience import ResiliencePolicy, RetryPolicy
from repro.datasets import load_all
from repro.serve import Deadline
from repro.storage import Database
from repro.web.cache import make_cache
from repro.web.faults import FaultModel
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
    # Always set a policy: transients must recover.  Each combo's engine
    # builds its own pump, so the final accounting is exact.
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=6, base_backoff=0.005)
    )
    engine = WsqEngine(
        database=shared_db,
        cache=make_cache(tier) if tier != "off" else False,
        faults=(
            FaultModel(seed=seed, transient_rate=fault_rate)
            if fault_rate
            else None
        ),
        resilience=policy,
        pump=RequestPump(
            name="chaos-soak", resilience=policy, single_flight=coalesce
        ),
        batch_size=batch_size,
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
