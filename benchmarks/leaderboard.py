"""Persisted perf leaderboard: aggregate benchmark artifacts, gate CI.

The benchmark suite leaves one JSON artifact per family under
``benchmarks/results/`` (``BENCH_batch_sweep.json``,
``BENCH_cache_sweep.json``, ``BENCH_trace_overlap.json``,
``BENCH_serve.json``, ``BENCH_shard.json``, ``BENCH_rewrite.json``).
This script folds them into a single
leaderboard keyed ``benchmark x metric`` and compares it against the
committed baseline at the repo root (``BENCH_leaderboard.json``).

Each metric carries its own comparison contract:

- ``direction`` — which way is better (``higher`` / ``lower``);
- ``gate`` + ``tolerance`` — whether CI fails when the fresh value
  falls outside ``tolerance`` (relative) of the committed baseline.
  Only *robust* metrics gate: speedup ratios, overlap factors, and hit
  ratios are stable across machines, while raw wall-clock numbers are
  recorded for the record but never fail the build (``tolerance``
  ``None``).

Usage::

    python benchmarks/leaderboard.py build             # write baseline
    python benchmarks/leaderboard.py check             # compare, exit 2 on regression
    python benchmarks/leaderboard.py check --write     # compare and refresh

Exit codes: 0 ok, 1 usage/missing-artifact error, 2 regression.
"""

import argparse
import json
import os
import sys

LEADERBOARD_KIND = "repro.leaderboard"
LEADERBOARD_VERSION = 1

#: Absolute slack added on top of the relative tolerance so near-zero
#: baselines (e.g. an overlap of 1) don't turn float jitter into a gate.
ABS_SLACK = 1e-9

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_leaderboard.json")


def _metric(value, direction, tolerance=None):
    """One leaderboard cell; ``tolerance=None`` means informational."""
    return {
        "value": value,
        "direction": direction,
        "gate": tolerance is not None,
        "tolerance": tolerance,
    }


def _load(results_dir, name):
    path = os.path.join(results_dir, name)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


# -- per-family extractors ----------------------------------------------------


def _extract_batch_sweep(report):
    metrics = {
        # The headline (column kernels at the default batch size vs the
        # one-row schedule).  The wide band absorbs run-to-run jitter in
        # the batch=1 denominator while still flooring near the required
        # >= 5x (the sweep itself asserts that floor absolutely before
        # the artifact is ever written).
        "local_speedup_default_vs_1": _metric(
            report["local_speedup_default_vs_1"], "higher", tolerance=0.5
        ),
    }
    overlaps = report.get("web_overlap") or {}
    if overlaps:
        # Overlap is structural (every batch size must keep the full
        # 37-call frontier in flight), so it gates with zero tolerance.
        metrics["web_overlap_min"] = _metric(
            min(overlaps.values()), "higher", tolerance=0.0
        )
    rates = report.get("local_rows_per_sec") or {}
    if rates:
        metrics["local_rows_per_sec_best"] = _metric(
            max(rates.values()), "higher"
        )
    if "src_loc" in report:
        # Lines of src/**/*.py — the ROADMAP's tracked source-size
        # metric; recorded, never gated.
        metrics["src_loc"] = _metric(report["src_loc"], "lower")
    return metrics


def _extract_cache_sweep(report):
    metrics = {}
    warm = report.get("warm") or {}
    if warm:
        # Warm runs are compute-bound (every simulated round trip is
        # gone), so the absolute ratio scales with machine speed; the
        # wide band still catches a cache that stopped working (~1x).
        metrics["warm_speedup_min"] = _metric(
            min(entry["speedup"] for entry in warm.values()),
            "higher",
            tolerance=0.75,
        )
    curve = report.get("curve") or {}
    if curve:
        top = max(curve, key=int)
        metrics["hit_ratio_top"] = _metric(
            curve[top]["hit_ratio"], "higher", tolerance=0.01
        )
        metrics["curve_speedup_top"] = _metric(
            curve[top]["speedup"], "higher", tolerance=0.4
        )
        metrics["uncached_seconds_top"] = _metric(
            curve[top]["uncached_seconds"], "lower"
        )
    return metrics


def _extract_trace_overlap(report):
    metrics = {}
    for scenario, overlap in sorted((report.get("overlap") or {}).items()):
        # Exact by construction (semaphore bound + saturation): zero
        # tolerance in either direction.
        metrics["overlap_{}".format(scenario)] = _metric(
            overlap, "higher", tolerance=0.0
        )
    return metrics


def _extract_serve(report):
    outcomes = report.get("outcomes") or {}
    total = sum(outcomes.values())
    metrics = {}
    if total:
        metrics["completed_fraction"] = _metric(
            round(outcomes.get("completed", 0) / total, 6),
            "higher",
            tolerance=0.5,
        )
        metrics["shed_fraction"] = _metric(
            round(outcomes.get("shed", 0) / total, 6), "lower"
        )
    shed = report.get("shed_latency_seconds")
    if shed:
        metrics["shed_latency_p99_seconds"] = _metric(shed["p99"], "lower")
    return metrics


def _extract_shard(report):
    metrics = {}
    scatter = report.get("scatter") or {}
    if "speedup" in scatter:
        # Sum-vs-max of simulated per-shard delays: a ratio, so stable
        # across machines; the band still catches a scatter that went
        # sequential (~1x against a >= 2x baseline).
        metrics["scatter_speedup"] = _metric(
            scatter["speedup"], "higher", tolerance=0.5
        )
        metrics["scatter_async_seconds"] = _metric(
            scatter["async_seconds"], "lower"
        )
    outage = report.get("outage") or {}
    if "counts_exact" in outage:
        # Degraded gathers are exact by construction: zero tolerance.
        metrics["outage_counts_exact"] = _metric(
            float(outage["counts_exact"]), "higher", tolerance=0.0
        )
    hedging = report.get("hedging") or {}
    if hedging.get("issued"):
        metrics["hedge_win_fraction"] = _metric(
            round(hedging.get("won", 0) / hedging["issued"], 6), "higher"
        )
    return metrics


def _extract_rewrite_pairs(report):
    metrics = {}
    if "min_speedup" in report:
        # The no-harm floor across the whole pair corpus: a rule that
        # fires must never lose to the plan it replaced.  The wide band
        # absorbs jitter around the weakest (~1.1x) pair while still
        # catching a rewrite that started losing outright.
        metrics["min_speedup"] = _metric(
            report["min_speedup"], "higher", tolerance=0.5
        )
    pairs = report.get("pairs") or {}
    for pair, key in (
        ("or_to_union_disjoint_windows", "or_to_union_speedup"),
        ("early_filter_derived_window", "early_filter_speedup"),
    ):
        cell = pairs.get(pair)
        if cell:
            # Headline wins: index windows vs full scans and a derived
            # join constraint vs a nested-loop sweep — ratios, so stable
            # across machines; the band still catches a rule whose gate
            # or rewrite quietly stopped firing (~1x).
            metrics[key] = _metric(cell["speedup"], "higher", tolerance=0.5)
    if pairs:
        metrics["optimized_seconds_total"] = _metric(
            round(sum(c["optimized_seconds"] for c in pairs.values()), 6),
            "lower",
        )
    return metrics


EXTRACTORS = [
    ("batch_sweep", "BENCH_batch_sweep.json", _extract_batch_sweep),
    ("cache_sweep", "BENCH_cache_sweep.json", _extract_cache_sweep),
    ("trace_overlap", "BENCH_trace_overlap.json", _extract_trace_overlap),
    ("serve_load", "BENCH_serve.json", _extract_serve),
    ("shard_load", "BENCH_shard.json", _extract_shard),
    ("rewrite_pairs", "BENCH_rewrite.json", _extract_rewrite_pairs),
]


# -- build / validate / check -------------------------------------------------


def build(results_dir=RESULTS_DIR):
    """Fold every present artifact into a leaderboard dict.

    Families whose artifact is missing are skipped and listed under
    ``"missing"`` — an explicit record, so a partial benchmark run can
    never silently pose as a full one.
    """
    benchmarks = {}
    missing = []
    for family, artifact, extract in EXTRACTORS:
        report = _load(results_dir, artifact)
        if report is None:
            missing.append(family)
            continue
        metrics = extract(report)
        if metrics:
            benchmarks[family] = metrics
    payload = {
        "kind": LEADERBOARD_KIND,
        "version": LEADERBOARD_VERSION,
        "benchmarks": benchmarks,
    }
    if missing:
        payload["missing"] = missing
    return payload


def validate_leaderboard(payload):
    """Structural problems with a leaderboard payload (empty list = ok)."""
    problems = []
    if not isinstance(payload, dict):
        return ["leaderboard payload must be a dict"]
    if payload.get("kind") != LEADERBOARD_KIND:
        problems.append(
            "kind must be {!r} (got {!r})".format(
                LEADERBOARD_KIND, payload.get("kind")
            )
        )
    version = payload.get("version")
    if not isinstance(version, int) or version > LEADERBOARD_VERSION:
        problems.append("unsupported version {!r}".format(version))
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, dict):
        return problems + ["benchmarks must be a dict"]
    for family, metrics in benchmarks.items():
        if not isinstance(metrics, dict):
            problems.append("{}: metrics must be a dict".format(family))
            continue
        for name, cell in metrics.items():
            where = "{}.{}".format(family, name)
            if not isinstance(cell, dict):
                problems.append("{}: metric must be a dict".format(where))
                continue
            if not isinstance(cell.get("value"), (int, float)):
                problems.append("{}: value must be numeric".format(where))
            if cell.get("direction") not in ("higher", "lower"):
                problems.append(
                    "{}: direction must be higher/lower".format(where)
                )
            tolerance = cell.get("tolerance")
            if tolerance is not None and (
                not isinstance(tolerance, (int, float)) or tolerance < 0
            ):
                problems.append(
                    "{}: tolerance must be None or >= 0".format(where)
                )
            if cell.get("gate") != (tolerance is not None):
                problems.append(
                    "{}: gate must mirror tolerance".format(where)
                )
    return problems


def check(current, baseline):
    """Compare *current* against *baseline*; returns regression strings.

    Only gated baseline metrics participate.  A gated metric missing
    from the fresh run is itself a regression (a benchmark family that
    stopped reporting must not pass silently).
    """
    regressions = []
    for family, metrics in sorted(baseline.get("benchmarks", {}).items()):
        fresh_family = current.get("benchmarks", {}).get(family, {})
        for name, cell in sorted(metrics.items()):
            tolerance = cell.get("tolerance")
            if not cell.get("gate") or tolerance is None:
                continue
            fresh = fresh_family.get(name)
            if fresh is None:
                regressions.append(
                    "{}.{}: gated metric missing from fresh run".format(
                        family, name
                    )
                )
                continue
            base_value = cell["value"]
            value = fresh["value"]
            band = abs(base_value) * tolerance + ABS_SLACK
            if cell["direction"] == "higher":
                regressed = value < base_value - band
            else:
                regressed = value > base_value + band
            if regressed:
                regressions.append(
                    "{}.{}: {} {:g} vs baseline {:g} "
                    "(tolerance {:.0%})".format(
                        family, name, cell["direction"], value, base_value,
                        tolerance,
                    )
                )
    return regressions


def render(payload):
    lines = ["leaderboard ({} benchmark families)".format(
        len(payload.get("benchmarks", {})))]
    for family, metrics in sorted(payload.get("benchmarks", {}).items()):
        lines.append("  {}".format(family))
        for name, cell in sorted(metrics.items()):
            gate = (
                "gate ±{:.0%}".format(cell["tolerance"])
                if cell.get("gate")
                else "info"
            )
            lines.append(
                "    {:<32} {:>12g}  ({}, {})".format(
                    name, cell["value"], cell["direction"], gate
                )
            )
    for family in payload.get("missing", []):
        lines.append("  {} (no artifact — skipped)".format(family))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=["build", "check"])
    parser.add_argument("--results", default=RESULTS_DIR,
                        help="benchmark artifact directory")
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="committed leaderboard to compare against")
    parser.add_argument("--output", default=BASELINE_PATH,
                        help="where build/--write persists the leaderboard")
    parser.add_argument("--write", action="store_true",
                        help="check: also persist the fresh leaderboard")
    args = parser.parse_args(argv)

    fresh = build(args.results)
    problems = validate_leaderboard(fresh)
    if problems:
        for problem in problems:
            print("invalid leaderboard: {}".format(problem), file=sys.stderr)
        return 1
    if not fresh["benchmarks"]:
        print("no benchmark artifacts under {}".format(args.results),
              file=sys.stderr)
        return 1
    print(render(fresh))

    if args.command == "build" or args.write:
        with open(args.output, "w") as fh:
            json.dump(fresh, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote {}".format(args.output))
    if args.command == "build":
        return 0

    if not os.path.exists(args.baseline):
        print("no baseline at {} — run 'build' first".format(args.baseline),
              file=sys.stderr)
        return 1
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    problems = validate_leaderboard(baseline)
    if problems:
        for problem in problems:
            print("invalid baseline: {}".format(problem), file=sys.stderr)
        return 1
    regressions = check(fresh, baseline)
    if regressions:
        print("\nREGRESSIONS vs {}:".format(args.baseline))
        for regression in regressions:
            print("  " + regression)
        return 2
    print("\nno regressions vs {}".format(args.baseline))
    return 0


if __name__ == "__main__":
    sys.exit(main())
