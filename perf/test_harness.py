"""Checks on the benchmark itself.  Run with ``pytest perf/`` (about two minutes);
the directory is outside the tier-1 ``testpaths`` on purpose."""

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter, namedtuple

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))  # workloads -> adapter -> repro

import compare
import gen
import stats
import workloads
from run import declaration

SPEC = declaration()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ONE_CALLER = [name for name in WORKLOADS if not workloads.SPECS[name].served]
NAMES = ["State {}".format(i) for i in range(50)]


def run_quick(workload, trace, seed=gen.DEFAULT_SEED, cwd=ROOT):
    child = subprocess.run(
        [sys.executable, os.path.join(cwd, "perf", "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--quick"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    return child


@pytest.fixture(scope="module")
def quick_runs():
    """One quick run per workload and mode: ``{(workload, trace): (stdout lines, result)}``."""
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            child = run_quick(workload, trace)
            assert child.returncode == 0, child.stderr
            lines = child.stdout.strip().splitlines()
            runs[workload, trace] = (lines[:-1], json.loads(lines[-1]))
    return runs


def test_equal_seeds_give_byte_equal_inputs():
    assert gen.inputs_blob(gen.DEFAULT_SEED, NAMES) == gen.inputs_blob(gen.DEFAULT_SEED, NAMES)
    assert gen.inputs_blob(gen.DEFAULT_SEED, NAMES) != gen.inputs_blob(gen.SECOND_SEED, NAMES)


def test_template_queries_cover_the_pool_for_every_seed():
    for seed in (gen.DEFAULT_SEED, gen.SECOND_SEED, 7):
        queries = gen.template_queries(seed)
        assert len({q.sql for q in queries}) == 48
        assert Counter(q.shape for q in queries) == {"t1": 16, "t2": 16, "t3": 16}
        for word in gen.KEYWORD_POOL:
            assert sum("= '{}'".format(word) in q.sql for q in queries if q.shape == "t1") == 1


def test_only_the_adapter_imports_repro():
    doomed = ("batch_layout", "RowBatch", "wsq.profile", "repro.bench")
    for name in os.listdir(HERE):
        if not name.endswith(".py") or name == os.path.basename(__file__):
            continue
        with open(os.path.join(HERE, name), encoding="utf-8") as handle:
            imports = [l for l in handle if re.match(r"\s*(from|import)\s+repro\b", l)]
        if name == "adapter.py":
            assert imports and not any(word in l for l in imports for word in doomed)
        else:
            assert not imports, name


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_once_with_its_unit(quick_runs, trace):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for workload in WORKLOADS:
        lines, result = quick_runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        notes = {"failed_fraction": "fraction"}  # printed, not declared
        if not trace:
            notes["machine_slowdown_x"] = "ratio"
        printed = Counter(line.split()[0] for line in lines[1:])
        assert printed == Counter(list(declared) + list(notes)), workload
        for line in lines[1:]:
            name, _, unit = line.split()[:3]
            assert unit == (declared.get(name) or notes[name])
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name


def test_end_to_end_metrics_are_never_zero(quick_runs):
    for workload in WORKLOADS:
        for name, metric in quick_runs[workload, 0][1]["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_counts_repeat_exactly_on_one_caller_workloads(quick_runs):
    exact = ("asynciter.calls_registered", "exec.rows_out", "web.cache_evictions")
    for workload in ONE_CALLER:
        again = run_quick(workload, 1)
        assert again.returncode == 0, again.stderr
        second = json.loads(again.stdout.strip().splitlines()[-1])["metrics"]
        first = quick_runs[workload, 1][1]["metrics"]
        for name in exact:
            assert first[name]["value"] == second[name]["value"], (workload, name)


def test_warm_cache_never_reaches_the_network(quick_runs):
    metrics = quick_runs["warm_cache", 1][1]["metrics"]
    assert metrics["web.cache_hit_fraction"]["value"] == 1.0
    assert metrics["web.cache_evictions"]["value"] == 0


def test_trace_file_explains_the_query_wall_clock(quick_runs):
    for workload in WORKLOADS:
        with open(os.path.join(HERE, "results", "trace-{}.json".format(workload))) as handle:
            trace = json.load(handle)
        assert trace["phase_coverage"] >= 0.9
        names = {span[1] for span in trace["spans"]}
        assert {"setup", "query", "sql.parse", "exec.drain", "serve.query"} <= names


def test_generator_never_holds_more_threads_than_cores():
    cores = os.cpu_count() or 1
    assert max(2 if spec.served else 1 for spec in workloads.SPECS.values()) <= cores
    seen = []

    def caller(sql):
        seen.append(sum(t.name.startswith("perf-client") for t in threading.enumerate()))
        time.sleep(0.001)
        return []

    stub = namedtuple("Stub", "queries expected shapes")(
        [gen.Query("q", "s", 0, 0, None)] * 4, [Counter()] * 4, ["s"]
    )
    loop = workloads.closed_loop([caller, caller], stub, 0.05, workloads.Tally())
    assert loop.samples and max(seen) <= min(2, cores)


def test_timings_are_reported_at_the_reference_speed():
    """On a machine half as fast, latencies read half and a window counts half as long."""
    slow = 2 * workloads.REFERENCE_S
    loop = workloads.Loop(
        samples=[(0, 0.010, 1.0 + k * 0.05) for k in range(180)],
        references=[(1.0 + k * 0.05, slow) for k in range(180)],
        started=0.0,
    )
    parts = workloads.windows(loop, 10.0)
    assert len(parts) == workloads.WINDOWS
    assert all(took == pytest.approx(0.005) for part, _ in parts for _, took in part)
    assert sum(length for _, length in parts) == pytest.approx(4.5)


def test_nearest_rank_percentile():
    assert stats.percentile(range(1, 101), 0.95) == 95
    assert stats.percentile(range(1, 201), 0.95) == 190  # ten samples beyond it


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.1]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [5.0, 15.0, 7.0, 13.0, 6.0, 14.0, 8.0, 12.0, 9.0, 11.0]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "WIN"
    assert compare.verdict(parent, faster, "higher", 0.1)[0] == "REGRESSION"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "REGRESSION"
    assert compare.verdict(parent, parent[::-1], "lower", 0.1)[0] == "NEUTRAL"
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "UNRESOLVED"
    assert compare.verdict(parent, slower, "lower", None)[0] == "REGRESSION"


def test_no_result_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and perf/: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perf", ignore=shutil.ignore_patterns("results", "__pycache__"))
    child = run_quick("table1_cold", 0, cwd=str(tmp_path))
    assert child.returncode != 0
    assert not child.stdout.strip().startswith("{") and '"metrics"' not in child.stdout
