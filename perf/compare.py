"""Paired verdicts between a parent's runs and a change's runs.

    python3 perf/compare.py PARENT.json CHANGE.json [CHANGE2.json ...]

Each file is a set saved by ``selfcheck.py --json`` on one commit, with
the same seeds in the same order; run i of the parent pairs with run i of
the change.  Make the runs alternating which commit goes first.  Per
metric and workload it prints one row and one verdict:

WIN         the change is better in at least 9 of 10 pairs (ties count for
            neither) and the medians differ by more than the parent's IQR
REGRESSION  the change's median is worse than the parent's by more than the
            metric's bound (without a bound: the mirror image of WIN)
UNRESOLVED  the parent's own spread is wider than the bound, and not every
            run of the change is better than every run of the parent
NEUTRAL     none of these

Every ratio is printed with its base.  Prints only; writes nothing.
"""

import json
import sys

import stats
from run import declaration


def verdict(parent, change, better, bound):
    """``(verdict, ratio, parent median)`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (c - p) > 0 means worse
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    base, median = stats.median(parent), stats.median(change)
    q1, _, q3 = stats.quartiles(parent)
    beyond_spread = abs(median - base) > q3 - q1
    worse = sign * (median - base) / abs(base) if base else 0.0
    ratio = median / base if base else float("nan")
    if wins >= 0.9 * len(pairs) and beyond_spread and worse < 0:
        return "WIN", ratio, base
    if bound is None:
        if losses >= 0.9 * len(pairs) and beyond_spread and worse > 0:
            return "REGRESSION", ratio, base
        return "NEUTRAL", ratio, base
    if base and (q3 - q1) / abs(base) > bound:
        clean_sweep = all(sign * (c - p) < 0 for p in parent for c in change)
        if not clean_sweep:
            return "UNRESOLVED", ratio, base
    if worse > bound:
        return "REGRESSION", ratio, base
    return "NEUTRAL", ratio, base


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) < 2:
        sys.exit(__doc__)
    spec = declaration()
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle)["runs"])
    parent = sets[0]
    regressions = 0
    for path, change in zip(paths[1:], sets[1:]):
        print("{} against parent {}".format(path, paths[0]))
        print("{:<13} {:<32} {:>13} {:>13} {:>8}  {}".format(
            "workload", "metric", "parent", "change", "ratio", "verdict"))
        for workload, series in parent.items():
            for name, values in series.items():
                theirs = change.get(workload, {}).get(name)
                if name not in declared or not theirs or len(values) < 2:
                    continue
                word, ratio, base = verdict(
                    values, theirs, declared[name]["better"], declared[name].get("bound")
                )
                regressions += word == "REGRESSION"
                print("{:<13} {:<32} {:>13.6g} {:>13.6g} {:>7.3f}x  {} ({} pairs, base {:.6g} {})".format(
                    workload, name, base, stats.median(theirs), ratio, word,
                    min(len(values), len(theirs)), base, declared[name]["unit"]))
        print()
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
