"""Benchmark fixtures.

Latency-bound benchmarks use ``benchmark.pedantic`` with explicit rounds
(each measured call is a full multi-query workload); micro-benchmarks use
the default calibrated loop.  The default simulated-latency band is
3–9 ms per request — scaled down from the paper's ~1 s Web so the suite
finishes quickly; sync/async *ratios* are unaffected by the scale.
"""

import os
import sys
import time

import pytest

# Allow "from repro..." imports when run from a source checkout.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.workloads import bench_engine  # noqa: E402
from repro.web.world import default_web  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session", autouse=True)
def warm_web():
    """Build the shared corpus once, outside any timed region."""
    return default_web()


@pytest.fixture()
def engine_factory():
    """Fresh zero-cache engines with bench latency, one per call."""
    return bench_engine


def results_path(name):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return os.path.join(RESULTS_DIR, name)


def timed(fn):
    """``(wrapper, seconds)``: *wrapper* runs *fn* and appends each call's
    wall-clock seconds to the list *seconds*.

    ``benchmark.stats`` is ``None`` under ``--benchmark-disable``, so
    tests that report a timing take it from here and pass either way.
    """
    seconds = []

    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - started)

    return wrapper, seconds
