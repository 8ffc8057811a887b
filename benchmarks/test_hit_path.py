"""What a warm call costs, split by layer.

The 24 Table-1 queries (8 per template) run asynchronously on an engine
whose cache already holds every call, so each call is answered inside
``AEVScan.open_batch`` and nothing reaches the network.  Over ``ROUNDS``
passes, the time spent in ``open_batch`` is split four ways and divided
by the calls it registered:

- build: resolving the bindings and building the call
  (``ExternalScan._make_call``, template substitution included);
- probe: the cache read (``SearchClient.probe``);
- rows: the complete rows of each answered call
  (``VTableInstance.complete_rows``);
- settle: the rest of ``open_batch``, i.e. registration, accounting and
  hand-back in ``AsyncContext.open`` and ``RequestPump.register``.

Every part runs under its own timer, which adds its own cost to that
part and to ``open_batch``: compare splits taken the same way, not a
split with an untimed run.  Written to ``benchmarks/results/hit_path.txt``.

Floor (structural): a burst of hits bumps ``registered`` and
``completed`` once per destination, by the burst's count, and observes
the ``e2e`` histogram once per destination with that count.
"""

import time
from collections import defaultdict

from conftest import results_path
from repro.asynciter.aevscan import AEVScan
from repro.asynciter.pump import RequestPump, _PumpStats
from repro.bench.workloads import template_queries
from repro.datasets import load_all
from repro.storage import Database
from repro.vtables.base import VTableInstance
from repro.vtables.evscan import ExternalScan
from repro.web.cache import ResultCache
from repro.web.client import SearchClient
from repro.wsq import WsqEngine

ROUNDS = 20
PARTS = ("build", "probe", "settle", "rows")


def _timing(spent, part, function):
    """*function*, adding each call's seconds to ``spent[part]``."""

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            spent[part] += time.perf_counter() - started

    return timed


def _bursts(monkeypatch):
    """Record, per ``RequestPump.register`` call, its calls' destinations
    and every ``(destination, key, amount)`` bump and e2e observation made
    inside it."""
    bursts = []
    register, bump, observe = RequestPump.register, _PumpStats.bump, _PumpStats.observe_latency

    def recording_register(self, calls, *args, **kwargs):
        calls = list(calls)
        bursts.append(([call.destination for call in calls], [], []))
        return register(self, calls, *args, **kwargs)

    def recording_bump(self, destination, key, amount=1):
        bursts[-1][1].append((destination, key, amount))
        return bump(self, destination, key, amount)

    def recording_observe(self, kind, destination, seconds, count=1):
        if kind == "e2e":
            bursts[-1][2].append((destination, count))
        return observe(self, kind, destination, seconds, count)

    monkeypatch.setattr(RequestPump, "register", recording_register)
    monkeypatch.setattr(_PumpStats, "bump", recording_bump)
    monkeypatch.setattr(_PumpStats, "observe_latency", recording_observe)
    return bursts


def test_hit_path(monkeypatch, capsys):
    queries = [sql for template in (1, 2, 3) for sql in template_queries(template)]
    engine = WsqEngine(database=load_all(Database()), cache=ResultCache())
    try:
        for sql in queries:  # fill the cache, then warm the statement table
            engine.execute(sql, mode="async")
        for sql in queries:
            engine.execute(sql, mode="async")
        misses = engine.cache.misses

        bursts = _bursts(monkeypatch)
        engine.execute(queries[-1], mode="async")
        assert bursts
        for destinations, bumps, observed in bursts:
            calls = defaultdict(int)
            for destination in destinations:
                calls[destination] += 1
            for key in ("registered", "completed"):
                assert sorted((d, a) for d, k, a in bumps if k == key) == sorted(calls.items())
            assert not [k for _, k, _ in bumps if k not in ("registered", "completed")]
            assert sorted(observed) == sorted(calls.items())
        monkeypatch.undo()

        spent = dict.fromkeys(PARTS + ("open_batch",), 0.0)
        monkeypatch.setattr(ExternalScan, "_make_call",
                            _timing(spent, "build", ExternalScan._make_call))
        monkeypatch.setattr(SearchClient, "probe", _timing(spent, "probe", SearchClient.probe))
        monkeypatch.setattr(VTableInstance, "complete_rows",
                            _timing(spent, "rows", VTableInstance.complete_rows))
        monkeypatch.setattr(AEVScan, "open_batch",
                            _timing(spent, "open_batch", AEVScan.open_batch))
        before = engine.pump.stats.snapshot()["registered"]
        began = time.perf_counter()
        for _ in range(ROUNDS):
            for sql in queries:
                engine.execute(sql, mode="async")
        wall = time.perf_counter() - began
        monkeypatch.undo()
        calls = engine.pump.stats.snapshot()["registered"] - before
        assert engine.cache.misses == misses  # every call was a hit
        assert engine.pump.quiesce(timeout=0)
    finally:
        engine.pump.shutdown()

    spent["settle"] = spent["open_batch"] - spent["build"] - spent["probe"] - spent["rows"]
    per_call = {part: spent[part] / calls * 1e6 for part in PARTS}
    lines = [
        "warm call ({} calls, {} queries x {} rounds; µs per call, each part timed):".format(
            calls, len(queries), ROUNDS),
        "  " + "  ".join("{} {:5.2f}".format(part, per_call[part]) for part in PARTS),
        "  open_batch {:5.2f}  whole query {:5.2f}".format(
            spent["open_batch"] / calls * 1e6, wall / calls * 1e6),
    ]
    table = "\n".join(lines)
    with open(results_path("hit_path.txt"), "w", encoding="utf-8") as f:
        f.write(table + "\n")
    with capsys.disabled():
        print("\n" + table)
