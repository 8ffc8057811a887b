"""How steady is the benchmark?  Run it N times per workload and derive the bounds.

    python3 perf/selfcheck.py --runs 10 --json perf/results/set1.json
    python3 perf/selfcheck.py --read perf/results/set1.json perf/results/set2.json

Each run uses another seed (``--first-seed`` + i), as the driver's runs do.
Per metric and workload it prints the median, the quartiles and the
relative IQR (q3 - q1 over the median); per metric it proposes the bound
``max(0.05, 3 x the widest relative IQR)``: the driver wants the spread
under a third of the bound, which is stricter than the issue's 2 x.  No
bound may exceed 0.25, so a metric that cannot get under 0.25 / 3 needs a
longer run or a place among the per-layer metrics.  ``setup_s`` is the
exception: the driver gates its median only and asks for the largest
bound.  Given two sets, it also checks that the second median is not
worse than the first by more than the declared bound.
``--write-bounds`` stores the proposals in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

import stats
from run import ROOT, declaration

MAX_BOUND = 0.25


def measure(workloads, seeds, seconds, trace):
    """``{workload: {metric: [one value per seed]}}`` from child processes."""
    runs = {}
    for workload in workloads:
        series = runs.setdefault(workload, {})
        for seed in seeds:
            command = [
                sys.executable, os.path.join(ROOT, "perf", "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(child.stdout.strip().splitlines()[-1])
            if child.returncode != 0 or not result["correct"]:
                sys.exit("selfcheck: {} seed {} was not correct".format(workload, seed))
            for name, metric in result["metrics"].items():
                series.setdefault(name, []).append(metric["value"])
            print("ran {} seed {}".format(workload, seed), file=sys.stderr)
    return runs


def report(runs, declared):
    """Print the spread table; returns ``{metric: proposed bound}``."""
    widest = {}
    print("{:<13} {:<32} {:>13} {:>13} {:>13} {:>8}".format(
        "workload", "metric", "q1", "median", "q3", "rel.IQR"))
    for workload, series in runs.items():
        for name, values in series.items():
            if len(values) < 2 or name not in declared:
                continue
            q1, q2, q3 = stats.quartiles(values)
            spread = stats.relative_iqr(values)
            widest[name] = max(widest.get(name, 0.0), spread)
            print("{:<13} {:<32} {:>13.6g} {:>13.6g} {:>13.6g} {:>8.4f}".format(
                workload, name, q1, q2, q3, spread))
    proposals = {}
    print()
    for name, spread in widest.items():
        if "bound" not in declared[name]:
            continue  # per-layer metrics have no bound
        proposals[name] = min(MAX_BOUND, max(0.05, round(3 * spread + 0.005, 2)))
        note = ""
        if name == "setup_s":  # only its median is gated, and it gets the largest bound
            proposals[name], note = MAX_BOUND, "  (spread not gated)"
        elif 3 * spread > MAX_BOUND:
            note = "  <- too wide: lengthen the run or demote to per-layer"
        print("{:<22} widest rel.IQR {:.4f}  declared bound {:.2f}  proposed {:.2f}{}".format(
            name, spread, declared[name]["bound"], proposals[name], note))
    return proposals


def agree(first, second, declared):
    """Second-set medians against the first's, within the declared bounds."""
    ok = True
    for workload in first:
        for name, values in first[workload].items():
            if "bound" not in declared.get(name, {}) or name not in second.get(workload, {}):
                continue
            base, again = stats.median(values), stats.median(second[workload][name])
            worse = (again - base) / base
            if declared[name]["better"] == "higher":
                worse = -worse
            if worse > declared[name]["bound"]:
                ok = False
                print("DISAGREE {} {}: {:.6g} then {:.6g} ({:+.1%} worse, bound {:.0%})".format(
                    workload, name, base, again, worse, declared[name]["bound"]))
    print("the two sets agree within the bounds" if ok else "the two sets DISAGREE")
    return ok


def main(argv=None):
    spec = declaration()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=2000)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: spreads of the per-layer metrics (they have no bounds)")
    parser.add_argument("--read", nargs="+", metavar="FILE", help="report saved sets instead of running")
    parser.add_argument("--json", metavar="PATH", help="save this set's values")
    parser.add_argument("--write-bounds", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 5 and not args.read:
        parser.error("a spread needs at least 5 runs")
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    if args.read:
        sets = []
        for path in args.read:
            with open(path, encoding="utf-8") as handle:
                sets.append(json.load(handle)["runs"])
    else:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        sets = [measure(args.workloads, seeds, args.seconds, args.trace)]
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump({"seconds": args.seconds, "seeds": seeds, "runs": sets[0]}, handle, indent=1)

    ok = True
    for runs in sets:
        proposals = report(runs, declared)
        print()
    if len(sets) >= 2:
        ok = agree(sets[0], sets[1], declared) and ok
    if args.write_bounds:
        for metric in spec["end_to_end"]:
            metric["bound"] = proposals.get(metric["name"], metric["bound"])
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            json.dump(spec, handle, indent=2)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
