"""The persisted perf leaderboard: aggregation, schema, regression gate."""

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "leaderboard", os.path.join(REPO_ROOT, "benchmarks", "leaderboard.py")
)
leaderboard = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(leaderboard)


def write_artifacts(
    results_dir,
    families=("batch", "cache", "overlap", "serve", "shard", "rewrite"),
):
    os.makedirs(str(results_dir), exist_ok=True)

    def dump(name, payload):
        with open(os.path.join(str(results_dir), name), "w") as f:
            json.dump(payload, f)

    if "batch" in families:
        dump("BENCH_batch_sweep.json", {
            "benchmark": "batch_sweep",
            "local_rows_per_sec": {"1": 1000.0, "64": 2500.0},
            "web_seconds": {"1": 0.05, "64": 0.05},
            "web_overlap": {"1": 37, "64": 37},
            "local_speedup_default_vs_1": 2.5,
            "src_loc": 24000,
        })
    if "cache" in families:
        dump("BENCH_cache_sweep.json", {
            "benchmark": "cache_sweep",
            "curve": {
                "1": {"hit_ratio": 0.0, "uncached_seconds": 0.3,
                      "cached_seconds": 0.3, "speedup": 1.0},
                "5": {"hit_ratio": 0.8, "uncached_seconds": 1.5,
                      "cached_seconds": 0.35, "speedup": 4.3},
            },
            "warm": {
                "memory": {"cold_seconds": 0.3, "warm_seconds": 0.01,
                           "speedup": 30.0, "hit_ratio": 0.5},
                "disk": {"cold_seconds": 0.3, "warm_seconds": 0.015,
                         "speedup": 20.0, "hit_ratio": 0.5},
            },
        })
    if "overlap" in families:
        dump("BENCH_trace_overlap.json", {
            "benchmark": "trace_overlap",
            "calls": 37,
            "overlap": {"limit_4": 4, "unbounded": 37, "sync": 1},
        })
    if "serve" in families:
        dump("BENCH_serve.json", {
            "outcomes": {"completed": 120, "shed": 60, "expired": 10,
                         "failed": 10},
            "shed_latency_seconds": {"p99": 0.05},
        })
    if "shard" in families:
        dump("BENCH_shard.json", {
            "scatter": {"service_seconds": 1.2, "async_seconds": 0.4,
                        "speedup": 3.0, "floor": 2.0},
            "outage": {"down_destination": "AV:shard2",
                       "degraded_gathers": 48, "counts_exact": True},
            "hedging": {"issued": 100, "won": 25, "lost": 75},
        })
    if "rewrite" in families:
        dump("BENCH_rewrite.json", {
            "workload": {"rows": 12000, "repeats": 3, "pairs": 2},
            "pairs": {
                "or_to_union_disjoint_windows": {
                    "pack": "or_to_union",
                    "rule": "or_to_union.split_disjunction",
                    "base_seconds": 0.06, "optimized_seconds": 0.005,
                    "speedup": 12.0, "rows": 180,
                },
                "early_filter_derived_window": {
                    "pack": "early_filter",
                    "rule": "early_filter.derive_join_filter",
                    "base_seconds": 1.8, "optimized_seconds": 0.3,
                    "speedup": 6.0, "rows": 8,
                },
            },
            "min_speedup": 6.0,
            "min_speedup_pair": "early_filter_derived_window",
            "headline": {
                "or_to_union_disjoint_windows": 12.0,
                "early_filter_derived_window": 6.0,
            },
            "floors": {"pair_min": 1.0, "headline": 2.0},
        })


class TestBuild:
    def test_aggregates_every_family(self, tmp_path):
        write_artifacts(tmp_path)
        payload = leaderboard.build(str(tmp_path))
        assert leaderboard.validate_leaderboard(payload) == []
        assert set(payload["benchmarks"]) == {
            "batch_sweep", "cache_sweep", "trace_overlap", "serve_load",
            "shard_load", "rewrite_pairs",
        }
        assert "missing" not in payload
        batch = payload["benchmarks"]["batch_sweep"]
        assert batch["local_speedup_default_vs_1"]["value"] == 2.5
        assert batch["web_overlap_min"] == {
            "value": 37, "direction": "higher", "gate": True, "tolerance": 0.0,
        }
        assert batch["local_rows_per_sec_best"]["value"] == 2500.0
        assert batch["src_loc"] == {
            "value": 24000, "direction": "lower", "gate": False,
            "tolerance": None,
        }
        # Raw wall-clock figures are recorded but never gate.
        assert not payload["benchmarks"]["cache_sweep"][
            "uncached_seconds_top"
        ]["gate"]
        assert payload["benchmarks"]["cache_sweep"]["warm_speedup_min"][
            "value"
        ] == 20.0
        assert payload["benchmarks"]["serve_load"]["completed_fraction"][
            "value"
        ] == pytest.approx(0.6)
        shard = payload["benchmarks"]["shard_load"]
        assert shard["scatter_speedup"]["gate"]
        assert shard["outage_counts_exact"] == {
            "value": 1.0, "direction": "higher", "gate": True,
            "tolerance": 0.0,
        }
        assert shard["hedge_win_fraction"]["value"] == pytest.approx(0.25)
        rewrite = payload["benchmarks"]["rewrite_pairs"]
        assert rewrite["min_speedup"]["gate"]
        assert rewrite["or_to_union_speedup"]["value"] == 12.0
        assert rewrite["early_filter_speedup"]["value"] == 6.0
        assert not rewrite["optimized_seconds_total"]["gate"]

    def test_missing_artifacts_are_explicit(self, tmp_path):
        write_artifacts(tmp_path, families=("batch",))
        payload = leaderboard.build(str(tmp_path))
        assert set(payload["benchmarks"]) == {"batch_sweep"}
        assert sorted(payload["missing"]) == [
            "cache_sweep", "rewrite_pairs", "serve_load", "shard_load",
            "trace_overlap",
        ]

    def test_validator_rejects_malformed(self, tmp_path):
        write_artifacts(tmp_path)
        payload = leaderboard.build(str(tmp_path))
        payload["benchmarks"]["batch_sweep"]["web_overlap_min"][
            "direction"
        ] = "sideways"
        assert any(
            "direction" in p
            for p in leaderboard.validate_leaderboard(payload)
        )
        assert leaderboard.validate_leaderboard([]) != []
        assert leaderboard.validate_leaderboard({"kind": "nope"}) != []


class TestCheck:
    def baseline(self, tmp_path):
        write_artifacts(tmp_path)
        return leaderboard.build(str(tmp_path))

    def test_identical_run_passes(self, tmp_path):
        base = self.baseline(tmp_path)
        assert leaderboard.check(base, base) == []

    def test_gated_drop_beyond_tolerance_fails(self, tmp_path):
        base = self.baseline(tmp_path)
        fresh = json.loads(json.dumps(base))
        cell = fresh["benchmarks"]["batch_sweep"]["local_speedup_default_vs_1"]
        cell["value"] = 2.5 * 0.4  # 60% drop against a 50% band
        regressions = leaderboard.check(fresh, base)
        assert len(regressions) == 1
        assert "local_speedup_default_vs_1" in regressions[0]

    def test_drop_within_tolerance_passes(self, tmp_path):
        base = self.baseline(tmp_path)
        fresh = json.loads(json.dumps(base))
        fresh["benchmarks"]["batch_sweep"]["local_speedup_default_vs_1"][
            "value"
        ] = 2.5 * 0.8  # inside the 50% band
        assert leaderboard.check(fresh, base) == []

    def test_improvement_passes(self, tmp_path):
        base = self.baseline(tmp_path)
        fresh = json.loads(json.dumps(base))
        fresh["benchmarks"]["cache_sweep"]["warm_speedup_min"]["value"] = 500.0
        assert leaderboard.check(fresh, base) == []

    def test_informational_metric_never_gates(self, tmp_path):
        base = self.baseline(tmp_path)
        fresh = json.loads(json.dumps(base))
        fresh["benchmarks"]["cache_sweep"]["uncached_seconds_top"][
            "value"
        ] = 9999.0
        assert leaderboard.check(fresh, base) == []

    def test_missing_gated_metric_is_a_regression(self, tmp_path):
        base = self.baseline(tmp_path)
        fresh = json.loads(json.dumps(base))
        del fresh["benchmarks"]["trace_overlap"]["overlap_unbounded"]
        regressions = leaderboard.check(fresh, base)
        assert any("missing" in r for r in regressions)

    def test_zero_tolerance_gates_exact(self, tmp_path):
        base = self.baseline(tmp_path)
        fresh = json.loads(json.dumps(base))
        fresh["benchmarks"]["trace_overlap"]["overlap_unbounded"]["value"] = 36
        regressions = leaderboard.check(fresh, base)
        assert any("overlap_unbounded" in r for r in regressions)


class TestCli:
    def test_build_then_check_round_trip(self, tmp_path, capsys):
        write_artifacts(tmp_path / "results")
        out = tmp_path / "BENCH_leaderboard.json"
        assert leaderboard.main([
            "build", "--results", str(tmp_path / "results"),
            "--output", str(out),
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        assert leaderboard.main([
            "check", "--results", str(tmp_path / "results"),
            "--baseline", str(out),
        ]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_check_exits_2_on_regression(self, tmp_path, capsys):
        write_artifacts(tmp_path / "results")
        out = tmp_path / "BENCH_leaderboard.json"
        assert leaderboard.main([
            "build", "--results", str(tmp_path / "results"),
            "--output", str(out),
        ]) == 0
        # Degrade the baseline's expectation upward so the fresh run
        # regresses against it.
        with open(str(out)) as f:
            baseline = json.load(f)
        baseline["benchmarks"]["batch_sweep"]["local_speedup_default_vs_1"][
            "value"
        ] = 100.0
        with open(str(out), "w") as f:
            json.dump(baseline, f)
        assert leaderboard.main([
            "check", "--results", str(tmp_path / "results"),
            "--baseline", str(out),
        ]) == 2
        assert "REGRESSIONS" in capsys.readouterr().out

    def test_check_without_baseline_errors(self, tmp_path, capsys):
        write_artifacts(tmp_path / "results")
        assert leaderboard.main([
            "check", "--results", str(tmp_path / "results"),
            "--baseline", str(tmp_path / "nope.json"),
        ]) == 1

    def test_empty_results_dir_errors(self, tmp_path):
        assert leaderboard.main(
            ["build", "--results", str(tmp_path / "empty")]
        ) == 1


class TestCommittedBaseline:
    def test_repo_root_leaderboard_is_valid(self):
        path = os.path.join(REPO_ROOT, "BENCH_leaderboard.json")
        assert os.path.exists(path), "BENCH_leaderboard.json missing"
        with open(path) as f:
            payload = json.load(f)
        assert leaderboard.validate_leaderboard(payload) == []
        # The acceptance bar: at least three benchmark families, each
        # with at least one gated metric.
        assert len(payload["benchmarks"]) >= 3
        for family, metrics in payload["benchmarks"].items():
            assert any(cell["gate"] for cell in metrics.values()), family
