"""Interactive WSQ shell.

The paper mentions "a simple interface that allows users to pose limited
queries over our WSQ implementation"; this REPL is ours::

    $ wsq --load-datasets --latency 50
    wsq> Select Name, Count From States, WebCount Where Name = T1
         Order By Count Desc;

Dot-commands: ``.help``, ``.tables``, ``.mode sync|async``,
``.explain [form] <query>`` (``.explain analyze <query>`` runs the query
and shows per-operator rows and seconds), ``.stats``, ``.quit``.
"""

import argparse
import json
import sys

from repro.asynciter.resilience import (
    CircuitBreakerConfig,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.config import ON_ERROR_POLICIES, EngineConfig
from repro.datasets import load_all
from repro.obs import Observability, render_waterfall, write_chrome_trace
from repro.storage import Database
from repro.util.errors import ConfigError, ReproError
from repro.web.cache import check_ttl, make_cache
from repro.web.faults import FaultModel
from repro.web.latency import UniformLatency
from repro.wsq import WsqEngine, format_table

BANNER = """WSQ/DSQ reproduction shell — type .help for commands.
Virtual tables: WebCount[_AV|_Google], WebPages[_AV|_Google], WebFetch, WebLinks
"""

HELP = """Statements end with ';'.  Dot-commands:
  .help              this text
  .tables            list stored tables (and indexes)
  .mode [sync|async|auto]  show or set execution mode
  .explain [FORM] <query>  show the plan; FORM is logical|optimized|
                     physical (default)|rules, or analyze: run the
                     query and show per-operator rows and seconds
  .stats             pump / engine / cache statistics
  .metrics [--prom]  metrics-registry snapshot (latency percentiles);
                     --prom prints Prometheus text exposition instead
  .quit              exit
"""


def build_engine(args):
    latency = None
    if args.latency > 0:
        seconds = args.latency / 1000.0
        latency = UniformLatency(seconds * 0.5, seconds * 1.5)
    cache = _cache_config(args)
    faults, resilience = _chaos_config(args)
    obs = None
    if (
        getattr(args, "trace", None)
        or getattr(args, "waterfall", False)
        or getattr(args, "metrics", False)
    ):
        obs = Observability.enabled()
    config = EngineConfig.resolve(
        on_error=getattr(args, "on_error", None),
        batch_size=getattr(args, "batch_size", None),
    )
    database = Database(args.db) if args.db else Database()
    try:
        if args.load_datasets:
            load_all(database)
        return WsqEngine(
            database=database,
            latency=latency,
            cache=cache,
            faults=faults,
            resilience=resilience,
            obs=obs,
            config=config,
        )
    except BaseException:
        database.close()  # an on-disk database keeps what it loaded
        raise


def _cache_config(args):
    """Resolve the cache flags into a cache, ``None`` or ``False``.

    ``--cache-tier`` selects the cache and ``--cache-ttl`` /
    ``--cache-dir`` parameterize it (a TTL alone implies ``memory``).
    With neither, ``None`` lets the engine fall back to ``$REPRO_CACHE``;
    ``--cache-tier off`` returns ``False``, the engine's "uncached even
    if ``REPRO_CACHE`` is set" sentinel.
    """
    tier = getattr(args, "cache_tier", None)
    ttl = getattr(args, "cache_ttl", None)
    if tier == "off":
        return False
    if tier is None:
        if ttl is None:
            return None
        tier = "memory"
    return make_cache(
        tier=tier,
        ttl=ttl,
        disk_path=getattr(args, "cache_dir", None),
    )


def _cache_ttl(text):
    """``--cache-ttl``'s type: seconds >= 0, or an argparse error."""
    try:
        return check_ttl(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _chaos_config(args):
    """Fault model + resilience policy from the chaos CLI flags."""
    fault_rate = getattr(args, "fault_rate", 0.0) or 0.0
    hard_rate = getattr(args, "fault_hard_rate", 0.0) or 0.0
    outages = getattr(args, "outage", None) or []
    faults = None
    if fault_rate > 0 or hard_rate > 0 or outages:
        faults = FaultModel(
            seed=getattr(args, "fault_seed", 0) or 0,
            transient_rate=fault_rate,
            hard_rate=hard_rate,
            outages=outages,
        )
    retry_attempts = getattr(args, "retry_attempts", None)
    call_timeout = getattr(args, "call_timeout", None)
    resilience = None
    if faults is not None or retry_attempts or call_timeout:
        resilience = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=retry_attempts or 3),
            call_timeout=call_timeout,
            breaker=CircuitBreakerConfig(),
        )
    return faults, resilience


def main(argv=None):
    parser = argparse.ArgumentParser(prog="wsq", description=__doc__)
    parser.add_argument("--db", help="database directory (default: in-memory)")
    parser.add_argument(
        "--load-datasets",
        action="store_true",
        help="preload States/Sigs/CSFields/Movies",
    )
    parser.add_argument(
        "--latency",
        type=float,
        default=0.0,
        help="simulated search latency midpoint in milliseconds",
    )
    cache_group = parser.add_argument_group("result cache")
    cache_group.add_argument(
        "--cache-tier",
        choices=("off", "memory", "disk"),
        default=None,
        help="result cache: off (even if REPRO_CACHE is set), an "
        "in-memory LRU, or the same LRU persisted to --cache-dir",
    )
    cache_group.add_argument(
        "--cache-ttl",
        type=_cache_ttl,
        default=None,
        metavar="SECONDS",
        help="seconds a cached result stays fresh (default: forever)",
    )
    cache_group.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="directory the cache persists to "
        "(default .wsq-cache, only with --cache-tier disk)",
    )
    parser.add_argument(
        "--sync", action="store_true", help="start in synchronous mode"
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="execution batch granularity (rows per operator pull; "
        "1 = row-at-a-time; default 256 or $REPRO_BATCH_SIZE)",
    )
    parser.add_argument(
        "-c", "--command", help="run one statement and exit", default=None
    )
    chaos = parser.add_argument_group("chaos / resilience")
    chaos.add_argument(
        "--on-error",
        choices=ON_ERROR_POLICIES,
        default=None,
        dest="on_error",
        help="graceful-degradation policy for failed external calls",
    )
    chaos.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="probability of a transient fault per external call attempt",
    )
    chaos.add_argument(
        "--fault-hard-rate",
        type=float,
        default=0.0,
        help="probability of a hard (non-retryable) fault per request",
    )
    chaos.add_argument(
        "--fault-seed", type=int, default=0, help="fault-schedule seed"
    )
    chaos.add_argument(
        "--outage",
        action="append",
        default=None,
        metavar="ENGINE",
        help="mark a search engine as down (repeatable)",
    )
    chaos.add_argument(
        "--retry-attempts",
        type=int,
        default=None,
        help="max attempts per external call (default 3 when chaos is on)",
    )
    chaos.add_argument(
        "--call-timeout",
        type=float,
        default=None,
        help="per-call timeout in seconds enforced by the pump",
    )
    observability = parser.add_argument_group("observability")
    observability.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record a request-lifecycle trace and write Chrome-trace "
        "JSON to FILE on exit (open in chrome://tracing or Perfetto)",
    )
    observability.add_argument(
        "--waterfall",
        action="store_true",
        help="print an ASCII request waterfall after each statement",
    )
    observability.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics snapshot (percentile latencies) on exit",
    )
    observability.add_argument(
        "--metrics-format",
        choices=("json", "prom"),
        default="json",
        help="format for the --metrics dump: the JSON snapshot (default) "
        "or Prometheus text exposition",
    )
    args = parser.parse_args(argv)

    try:
        engine = build_engine(args)
    except ConfigError as exc:
        parser.error(str(exc))
    except ReproError as exc:  # e.g. a --db directory of another page format
        _print_error(exc)
        return 1
    try:
        return _shell(engine, args)
    finally:
        engine.database.close()


def _shell(engine, args):
    """Run ``-c`` or the interactive loop; the exit status."""
    mode = "sync" if args.sync else "async"
    if args.command is not None:
        status = _run_statement(engine, args.command, mode, waterfall=args.waterfall)
        _finish_observability(engine, args)
        return status

    print(BANNER)
    buffer = []
    while True:
        try:
            prompt = "wsq> " if not buffer else "...> "
            line = input(prompt)
        except EOFError:
            print()
            _finish_observability(engine, args)
            return 0
        except KeyboardInterrupt:
            buffer = []
            print()
            continue
        stripped = line.strip()
        if not buffer and stripped.startswith("."):
            mode = _dot_command(engine, stripped, mode)
            if mode is None:
                _finish_observability(engine, args)
                return 0
            continue
        buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(buffer)
            buffer = []
            _run_statement(engine, statement, mode, waterfall=args.waterfall)


def _finish_observability(engine, args):
    """Write the trace file / metrics dump the observability flags asked for."""
    if getattr(args, "trace", None) and engine.tracer is not None:
        engine.pump.quiesce()
        write_chrome_trace(args.trace, engine.tracer.events())
        print(
            "trace: {} event(s) -> {} (open in chrome://tracing or "
            "https://ui.perfetto.dev)".format(len(engine.tracer), args.trace),
            file=sys.stderr,
        )
    if getattr(args, "metrics", False):
        engine.pump.quiesce()
        if getattr(args, "metrics_format", "json") == "prom":
            print(engine.metrics.to_prometheus(), end="")
        else:
            print(json.dumps(engine.metrics_snapshot(), indent=1, sort_keys=True))


def _dot_command(engine, line, mode):
    parts = line.split(None, 1)
    command = parts[0].lower()
    argument = parts[1] if len(parts) > 1 else ""
    if command in (".quit", ".exit"):
        return None
    if command == ".help":
        print(HELP)
    elif command == ".tables":
        for name in engine.database.table_names():
            print(" ", name)
        for name in engine.database.index_names():
            print("  (index)", name)
    elif command == ".mode":
        if argument in ("sync", "async", "auto"):
            mode = argument
        print("mode:", mode)
    elif command == ".explain":
        form = "physical"
        head = argument.split(None, 1)
        if head and head[0].lower() in engine.EXPLAIN_FORMS:
            form = head[0].lower()
            argument = head[1] if len(head) > 1 else ""
        if not argument:
            print("usage: .explain [{}] <query>".format("|".join(engine.EXPLAIN_FORMS)))
        else:
            try:
                print(engine.explain(argument.rstrip(";"), mode=mode, form=form))
            except ReproError as exc:
                _print_error(exc)
    elif command == ".stats":
        stats = engine.stats()
        for key, value in stats.items():
            print("  {}: {}".format(key, value))
        breakers = stats.get("pump", {}).get("breakers") or {}
        if breakers:
            print("  circuit breakers:")
            for destination, snap in sorted(breakers.items()):
                line = "    {}: {}".format(destination, snap["state"])
                if snap.get("opened_at") is not None:
                    line += " (opened_at={:.3f}".format(snap["opened_at"])
                    if snap.get("last_transition_at") is not None:
                        line += ", last_transition_at={:.3f}".format(
                            snap["last_transition_at"]
                        )
                    line += ")"
                line += "  opens={} half_opens={} closes={} rejections={}".format(
                    snap["opens"],
                    snap["half_opens"],
                    snap["closes"],
                    snap["rejections"],
                )
                print(line)
    elif command == ".metrics":
        if argument.strip() in ("--prom", "prom"):
            print(engine.metrics.to_prometheus(), end="")
        else:
            print(json.dumps(engine.metrics_snapshot(), indent=1, sort_keys=True))
    else:
        print("unknown command {!r}; try .help".format(command))
    return mode


def _run_statement(engine, statement, mode, waterfall=False):
    statement = statement.strip().rstrip(";")
    if not statement:
        return 0
    tracer = engine.tracer
    events_before = len(tracer) if tracer is not None else 0
    try:
        result = engine.run(statement, mode=mode)
    except ReproError as exc:
        _print_error(exc)
        return 1
    print(format_table(result, max_rows=40))
    if result.elapsed is not None:
        print(
            "{} rows in {:.3f}s ({} mode)".format(len(result), result.elapsed, mode)
        )
    if waterfall and tracer is not None:
        engine.pump.quiesce()
        # Only this statement's events (the ring may hold older queries).
        print(
            render_waterfall(
                tracer.events()[events_before:], dropped=tracer.dropped
            )
        )
    return 0


def _print_error(exc):
    diagnostic = getattr(exc, "diagnostic", None)
    print("error:", diagnostic() if callable(diagnostic) else exc, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
