"""Serve-layer load benchmark: overload, shedding, fairness, deadlines.

Drives a burst of concurrent WSQ queries from several tenants through
one :class:`~repro.serve.session.QueryService` over a fault-injecting
web, with offered load far above the pump's slot capacity.  Prints
admitted-vs-shed latency percentiles (from the engine's
``MetricsRegistry``) plus per-tenant outcome counts, and enforces the
overload contract:

- shed queries fail *fast* (typed, p99 <= 1 s);
- admitted generous-deadline queries complete (bounded failure rate);
- the weighted tenant demonstrably gets the better queue waits;
- the pump's accounting is exact once the storm has drained.
"""

import threading
import zlib

from repro.asynciter.pump import PumpLimits, RequestPump
from repro.asynciter.resilience import (
    CircuitBreakerConfig,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.bench.workloads import template_queries
from repro.datasets import load_all
from repro.serve import AdmissionRejected, QueryService, TenantPolicy
from repro.storage import Database
from repro.web.faults import FaultModel
from repro.web.latency import UniformLatency
from repro.wsq import WsqEngine

TOTAL_QUERIES = 300
SHED_P99_BOUND = 1.0  # seconds

PUMP_SLOTS = 8  # offered load below is tens of times this capacity
WORKERS = 8
FAULT_RATE = 0.10
SEED = 2026

TENANTS = (
    TenantPolicy("gold", weight=3.0),
    TenantPolicy("silver", weight=1.0),
    TenantPolicy("bronze", weight=1.0, max_queued=48),
)
#: Submission mix per tenant: (share of traffic, deadline seconds).
MIX = {
    "gold": (0.4, 30.0),
    "silver": (0.4, 30.0),
    "bronze": (0.2, 30.0),
}
#: Fraction of each tenant's queries submitted with a deadline too tight
#: to survive the overload queue — the deadline-shed population.
TIGHT_FRACTION = 0.1
TIGHT_DEADLINE = 0.02


def _build_service():
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=4, base_backoff=0.002),
        call_timeout=5.0,
        breaker=CircuitBreakerConfig(failure_threshold=50),
    )
    pump = RequestPump(
        name="serve-bench",
        limits=PumpLimits(max_total=PUMP_SLOTS),
        resilience=policy,
        single_flight=True,
    )
    engine = WsqEngine(
        database=load_all(Database()),
        latency=UniformLatency(0.003, 0.009),
        cache=False,
        faults=FaultModel(seed=SEED, transient_rate=FAULT_RATE),
        resilience=policy,
        pump=pump,
    )
    service = QueryService(
        engine,
        tenants=list(TENANTS),
        max_workers=WORKERS,
        max_queued=256,
    )
    return engine, service


def _workload():
    """(tenant, sql, timeout) triples — seeded, no runtime randomness."""
    queries = template_queries(1, instances=8) + template_queries(
        1, instances=8, run=2
    )
    plan = []
    for tenant, (share, deadline) in sorted(MIX.items()):
        count = int(TOTAL_QUERIES * share)
        tight_every = max(2, int(1 / TIGHT_FRACTION))
        for i in range(count):
            timeout = TIGHT_DEADLINE if i % tight_every == 0 else deadline
            plan.append((tenant, queries[i % len(queries)], timeout))
    # Seeded interleave so tenants contend instead of arriving in blocks
    # (crc32, not hash(): hash() is salted per process).
    plan.sort(
        key=lambda item: zlib.crc32(
            "{}|{}".format(SEED, item).encode("utf-8")
        )
    )
    return plan


def _summaries(engine, prefix):
    out = {}
    for key, summary in engine.metrics_snapshot()["histograms"].items():
        if key.startswith(prefix):
            out[key] = summary
    return out


def test_serve_overload(capsys):
    engine, service = _build_service()
    plan = _workload()
    outcomes = {"completed": 0, "shed": 0, "expired": 0, "failed": 0}
    lock = threading.Lock()

    def client(chunk):
        # Submit without waiting, so the whole plan lands on the service
        # in one burst (offered load ≫ 4× the pump's slot capacity), then
        # wait for each of this client's handles: the service runs its
        # queries on the threads that wait.
        handles = []
        for tenant, sql, timeout in chunk:
            try:
                handles.append(
                    service.submit(sql, tenant=tenant, timeout=timeout)
                )
            except AdmissionRejected:
                with lock:
                    outcomes["shed"] += 1
        for handle in handles:
            try:
                handle.result(timeout=120.0)
                verdict = "completed"
            except AdmissionRejected:
                verdict = "shed"
            except Exception:
                verdict = "expired" if handle.status == "expired" else "failed"
            with lock:
                outcomes[verdict] += 1

    threads = 12
    chunks = [plan[i::threads] for i in range(threads)]
    clients = [
        threading.Thread(target=client, args=(chunk,)) for chunk in chunks
    ]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=120.0)
        assert not thread.is_alive()
    service.close()
    assert engine.pump.quiesce(timeout=10.0)

    snapshot = engine.metrics_snapshot()
    pump_snap = engine.pump.stats.snapshot()
    shed_latency = snapshot["histograms"].get("serve.shed_latency_seconds")
    queue_wait = _summaries(engine, "serve.queue_wait_seconds")

    with capsys.disabled():
        print("\nserve load: {} queries → {}".format(len(plan), outcomes))
        if shed_latency:
            print(
                "shed fast-fail p99 = {:.4f}s (bound {}s)".format(
                    shed_latency["p99"], SHED_P99_BOUND
                )
            )
        for tenant in sorted(MIX):
            wait = queue_wait.get(
                "serve.queue_wait_seconds{{tenant={}}}".format(tenant)
            )
            if wait:
                print(
                    "  {:<7} queue wait p50={:.4f}s p99={:.4f}s "
                    "admitted={}".format(
                        tenant, wait["p50"], wait["p99"], wait["count"]
                    )
                )

    # -- the overload contract ------------------------------------------------
    total = sum(outcomes.values())
    assert total == len(plan)
    assert outcomes["completed"] > 0
    assert outcomes["shed"] > 0, "overload run produced no sheds"
    # Admitted queries met their deadlines: generous-deadline failures
    # (expired + failed) stay a small fraction of completions.
    assert outcomes["expired"] + outcomes["failed"] <= max(
        5, total // 20
    ), "admitted queries missed generous deadlines: {}".format(outcomes)
    # Shed queries failed fast.
    assert shed_latency is not None
    assert shed_latency["p99"] <= SHED_P99_BOUND, (
        "shed fast-fail p99 {:.4f}s exceeds bound {}s".format(
            shed_latency["p99"], SHED_P99_BOUND
        )
    )
    # Fairness: the weight-3 tenant's median queue wait is no worse than
    # the weight-1 tenant with the same traffic share.
    gold = queue_wait.get("serve.queue_wait_seconds{tenant=gold}")
    silver = queue_wait.get("serve.queue_wait_seconds{tenant=silver}")
    if gold and silver and silver["p50"] > 0.01:
        assert gold["p50"] <= silver["p50"] * 1.25
    # Exact accounting after the storm drained.
    settled = (
        pump_snap["completed"] + pump_snap["failed"] + pump_snap["cancelled"]
    )
    assert settled == pump_snap["registered"]
    assert pump_snap["queued"] == 0
    engine.pump.shutdown()
