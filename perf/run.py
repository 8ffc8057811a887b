"""Run the benchmark: one workload in this process, or all four as child processes.

    python3 perf/run.py --seed 2000            # every workload, end-to-end metrics
    python3 perf/run.py --trace                # every workload, per-layer metrics
    python3 perf/run.py --workload warm_cache --seed 7 --seconds 24 --trace 0

With ``--workload`` the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is non-zero when an operation failed or an oracle disagreed.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here: imports are part of it

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

#: ``setup_s`` is the median of this many set-ups, each in a fresh process.
SETUP_REPEATS = 3


def declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def pin_to_one_cpu():
    """Keep every thread of this process on one CPU (threads inherit the mask).

    Under the GIL the engine's threads (caller, pump loop, service workers)
    run one at a time anyway, but where the OS puts them is a lottery: all
    on one core, a warm-cache query takes 6-7 ms and a served one 28 ms;
    spread over both, 11-12 ms and 44-48 ms (cross-core GIL hand-offs), and
    which it is changes between runs and within them.  Pinned, the numbers
    repeat.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not Linux, or not allowed: measure unpinned


def child_command(args, *extra):
    return [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + list(extra)


def fresh_setups(args, count):
    """``setup_s`` of *count* fresh processes that set this workload up and exit."""
    times = []
    for _ in range(count):
        child = subprocess.run(
            child_command(args, "--setup-only"), cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        if child.returncode != 0:
            sys.exit("perf/run.py: a set-up process failed")
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return times


def run_workload(args, declared):
    """Measure one workload here; returns the result object."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]  # a CI leg's knobs must not change a workload
    pin_to_one_cpu()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit("perf/run.py: no program to measure: src/repro is missing under " + ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import stats
    import workloads

    spec = workloads.SPECS[args.workload]
    import_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(repr(workloads.setup_seconds(spec, args.seed, import_s)))
        sys.exit(0)
    samples, note = {}, None
    if args.trace:
        trace_path = os.path.join(RESULTS, "trace-{}.json".format(spec.name))
        metrics, tally = workloads.run_traced(spec, args.seed, args.seconds, trace_path)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        metrics, samples, tally, note = workloads.run_end_to_end(
            spec, args.seed, args.seconds, import_s
        )
        # This process's set-up is process start -> first timed query; the
        # other set-ups run in fresh processes, after the timed phase, so a
        # one-time cost (lazy imports, compiled kernels) is in every one.
        setups = [metrics["setup_s"]] + fresh_setups(args, SETUP_REPEATS - 1)
        metrics["setup_s"] = stats.median(setups)
        samples["setup_s"] = len(setups)
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if set(metrics) != set(units):
        sys.exit(
            "perf/run.py: measured and declared metrics differ: {}".format(
                sorted(set(metrics) ^ set(units))
            )
        )
    print("workload {} seed {} seconds {} trace {}".format(
        spec.name, args.seed, args.seconds, args.trace))
    for name in units:
        count = " n={}".format(samples[name]) if name in samples else ""
        print("{:<34} {:>16.6f} {}{}".format(name, metrics[name], units[name], count))
    # Printed and not declared: a declared metric may never read 0, and the
    # machine's slowdown is the sandbox's doing, not the program's.
    notes = [("failed_fraction", tally.failed / tally.attempted, "fraction", tally.attempted)]
    for name, value, unit, count in notes + ([note] if note else []):
        print("{:<34} {:>16.6f} {} n={}".format(name, value, unit, count))
    for problem in tally.problems[:20]:
        print("FAILED " + problem, file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_suite(args, declared):
    """Each workload in its own child process; returns ``{workload: result}``."""
    results = {}
    for workload in (w["name"] for w in declared["workloads"]):
        args.workload = workload
        child = subprocess.run(child_command(args), cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[workload] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        if child.returncode != 0:
            results[workload]["correct"] = False
    return results


def main(argv=None):
    declared = declaration()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=2000)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of one run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced run, printing the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the length; the bounds do not apply")
    # What run_workload passes to the fresh processes it times set-up in.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    if args.quick:
        args.seconds /= 10.0

    if args.workload:
        result = run_workload(args, declared)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = run_suite(args, declared)
    for workload, result in results.items():
        print("{:<12} {} ({} attempted, {} failed)".format(
            workload, "ok" if result["correct"] else "INCORRECT",
            result["attempted"], result["failed"]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
