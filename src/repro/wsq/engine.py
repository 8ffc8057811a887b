"""The WSQ engine facade."""

import threading
from collections import OrderedDict, namedtuple

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import RequestPump
from repro.asynciter.reqsync import ReqSync
from repro.asynciter.rewrite import rewrite_logical
from repro.config import EngineConfig, default_cache
from repro.exec.operator import execute_batches, instrument
from repro.obs import Observability
from repro.obs.analysis import destination_latencies, overlap_factor, request_table
from repro.obs.trace import BEGIN, END, PLAN_RULE_FIRED, QUERY_SPAN, Tracer
from repro.plan import logical as logical_ir
from repro.plan.binder import Binder
from repro.plan.physical import lower
from repro.plan.planner import Planner
from repro.relational.expr import kernel_stats, subqueries
from repro.sql import ast
from repro.sql.parser import parse, parse_select
from repro.storage.database import Database
from repro.util.errors import PlanError
from repro.util.timing import resolve_clock
from repro.vtables.evscan import ExternalScan
from repro.vtables.webcount import WebCountDef
from repro.vtables.webfetch import WebFetchDef, WebLinksDef
from repro.vtables.webpages import WebPagesDef
from repro.web.client import SearchClient
from repro.web.world import default_web
from repro.wsq.result import QueryResult

SYNC = "sync"
ASYNC = "async"
AUTO = "auto"

#: Entries the statement table keeps, least recently used out first: a
#: stored statement measures 2.7–8.3 KB and its kept plan 1.8–7.0 KB
#: (tracemalloc, EXPERIMENTS.md), so a full table stays under 2 MB.
STATEMENT_CAPACITY = 128


class _Statement(namedtuple("_Statement", "logical firings mode external generation")):
    """What parse → bind → ReqSync placement make of one SELECT text.

    The finished logical tree, every placement step that produced it, the
    resolved *mode* (never "auto"), whether the tree holds an *external*
    scan or a subquery (either needs the engine's pump), and the
    ``Database.generation`` it was planned under.  A stored
    one is shared by every execution and thread that hits it: ``lower``
    builds operators from it and nothing writes to it.

    ``idle`` is the one lowered plan :meth:`WsqEngine._run` keeps between
    executions, as ``(plan, holders)``: *holders* are its operators that
    take the query's ``AsyncContext``, detached while the plan is idle.
    """

    idle = None


def _holds_subquery(logical):
    """Does a predicate of the tree hold an ``IN``/``EXISTS`` subquery?

    Such a predicate keeps the subplan ``lower`` gave it and memoises its
    rows on itself, which is execution state: a tree holding one is
    planned per execution.
    """
    return any(
        subqueries(getattr(node, "predicate", None))
        for node in logical_ir.walk(logical)
    )


class WsqEngine:
    """A WSQ instance: local database + Web search virtual tables.

    Parameters
    ----------
    database:
        The local :class:`~repro.storage.database.Database` (a fresh
        in-memory one by default).
    web:
        A :class:`~repro.web.world.SimulatedWeb`; defaults to the shared
        calibrated instance.
    latency:
        A :class:`~repro.web.latency.LatencyModel` applied to every
        search/fetch (``None`` = instantaneous, for tests).
    cache:
        Optional :class:`~repro.web.cache.ResultCache`, shared by
        every query in either mode.  ``None`` builds the one
        ``REPRO_CACHE`` asks for, if any
        (:func:`repro.config.default_cache`); ``False`` means no cache
        whatever the environment says.
    pump:
        A :class:`~repro.asynciter.pump.RequestPump`, used exactly as
        it was built: its registry is the engine's registry, and its
        tracer, resilience policy and single-flight setting are its own
        (build it with ``tracer=obs.tracer`` to see request lifecycles
        in the engine's trace).  ``None`` builds the engine its own
        single-flight pump, the same way whatever else is passed: with
        *resilience*, on the engine's clock, and with *obs*'s tracer and
        registry when observed.  The pump owns no thread: it issues
        on the registering thread and runs its timers inside the waiting
        query's wait, so an engine left unshut holds no thread.
    obs:
        An :class:`~repro.obs.Observability` bundle.  With one attached
        (e.g. ``Observability.enabled()``), every query is traced —
        ReqSync activity, query spans, cache events and, on a pump the
        engine built, request lifecycles.  Without one, tracing is off
        and only the pump's always-on metrics run.
    faults / resilience:
        A :class:`~repro.web.faults.FaultModel` for the clients and the
        :class:`~repro.asynciter.resilience.ResiliencePolicy` of the
        engine's pump.
    config:
        The :class:`~repro.config.EngineConfig` (``None`` resolves one
        from the environment).  Any of its field names may also be given
        as a keyword — ``WsqEngine(batch_size=64, on_error="drop")`` — and
        overrides that field; the planner, the ReqSync rewrite and
        lowering all receive ``engine.config`` whole.

    Whatever the engine wires — its pump, its clients, its cache —
    counts into the one registry :attr:`metrics` returns.

    For every engine name ``E`` the catalog has ``WebCount_E`` and
    ``WebPages_E``; the first engine (alphabetically) also provides plain
    ``WebCount``/``WebPages``.  ``WebFetch``/``WebLinks`` cover the
    crawler scenario.
    """

    def __init__(
        self,
        database=None,
        web=None,
        latency=None,
        cache=None,
        pump=None,
        obs=None,
        faults=None,
        resilience=None,
        config=None,
        **overrides
    ):
        if config is None:
            config = EngineConfig.resolve(**overrides)
        else:
            config = config.override(**overrides)
        self.config = config
        self.database = database if database is not None else Database()
        self.web = web if web is not None else default_web()
        self.latency = latency
        if cache is None:
            cache = default_cache()
        elif cache is False:
            cache = None
        self.cache = cache
        self.faults = faults
        self.clock = resolve_clock(obs.clock if obs is not None else None)
        if pump is None:
            pump = RequestPump(
                resilience=resilience,
                tracer=obs and obs.tracer,
                metrics=obs and obs.metrics,
                clock=self.clock,
                single_flight=True,
            )
        self.pump = pump
        if obs is not None and obs.metrics is not pump.metrics:
            # A pump that came with its own registry: the clients and the
            # cache count there too, so one engine has one registry.
            obs = Observability(
                tracer=obs.tracer, metrics=pump.metrics, clock=obs.clock
            )
        self.obs = obs
        if obs is not None and cache is not None:
            # A cache may serve several engines: it counts into the
            # registry of an engine that asks for observability, and
            # otherwise into its own.
            cache.attach_observability(metrics=obs.metrics, tracer=obs.tracer)
        self.clients = {
            name: self._build_client(name)
            for name in self.web.engine_names()
        }
        self.fetch_service = self.web.fetch_service(latency=latency, cache=cache)
        self.vtables = self._build_catalog()
        self._planner = Planner(self.database, self.vtables, options=config)
        self._fallback_query_ids = 0
        self._statements = OrderedDict()  # (sql, requested mode) -> _Statement
        self._statements_lock = threading.Lock()

    # Three views of ``config``, the per-query deduplication flag and an
    # always-absent cost model, kept for the frozen benchmark adapter
    # (perf/adapter.py); nothing else in src/, tests/, benchmarks/ or
    # examples/ may use them.

    @property
    def planner_options(self):
        return self.config

    @property
    def rewrite_settings(self):
        return self.config

    def exec_options(self):
        return self.config

    dedup_calls = True
    cost_model = None

    @property
    def batch_size(self):
        """Rows per operator pull (``config.batch_size``)."""
        return self.config.batch_size

    def _build_client(self, engine_name):
        """The web client for one engine."""
        return SearchClient(
            self.web.engine(engine_name),
            latency=self.latency,
            cache=self.cache,
            faults=self.faults,
            obs=self.obs,
        )

    def _build_catalog(self):
        catalog = {}
        names = sorted(self.clients)
        for engine_name in names:
            client = self.clients[engine_name]
            catalog["WebCount_{}".format(engine_name)] = WebCountDef(
                "WebCount_{}".format(engine_name), client
            )
            catalog["WebPages_{}".format(engine_name)] = WebPagesDef(
                "WebPages_{}".format(engine_name), client
            )
        default_client = self.clients[names[0]]
        catalog["WebCount"] = WebCountDef("WebCount", default_client)
        catalog["WebPages"] = WebPagesDef("WebPages", default_client)
        catalog["WebFetch"] = WebFetchDef("WebFetch", self.fetch_service)
        catalog["WebLinks"] = WebLinksDef("WebLinks", self.fetch_service)
        return catalog

    # -- observability ---------------------------------------------------------

    @property
    def tracer(self):
        """The engine's tracer, or None when tracing is disabled."""
        return self.obs.tracer if self.obs is not None else None

    @property
    def metrics(self):
        """The request-metrics registry (the pump's backing store)."""
        return self.pump.metrics

    def _next_query_id(self, tracer):
        if tracer is not None:
            return tracer.next_query_id()
        self._fallback_query_ids += 1
        return self._fallback_query_ids - 1

    # -- planning -----------------------------------------------------------------

    def _derive(self, query, mode, tracer, query_id):
        """Build -> (async mode) ReqSync placement: a :class:`_Statement`."""
        generation = self.database.generation  # before the catalog is read
        logical = self._planner.plan_logical(query)
        firings = []
        mode = self._resolve_mode(logical, mode)
        external = logical_ir.contains_external_scan(logical) or _holds_subquery(
            logical
        )
        if mode == ASYNC:
            logical, firings = rewrite_logical(
                logical,
                self.config,
                tracer=tracer,
                metrics=self.pump.metrics,
                query_id=query_id,
            )
        return _Statement(logical, firings, mode, external, generation)

    def _context(self, statement, tracer, query_id, deadline=None):
        """One execution's ``AsyncContext``, or None for a local-only plan."""
        if statement.mode == ASYNC or statement.external:
            # One call outstanding at a time leaves nothing in flight to
            # deduplicate against, so sync contexts skip the bookkeeping.
            return AsyncContext(
                self.pump,
                dedup=statement.mode == ASYNC,
                tracer=tracer,
                query_id=query_id,
                deadline=deadline,
            )

    def _lower(self, statement, tracer, query_id, deadline=None):
        """One execution's operators over a (possibly shared) statement."""
        context = self._context(statement, tracer, query_id, deadline)
        return lower(statement.logical, self.config, context)

    def _statement(self, sql, mode, tracer, parser=parse_select):
        """The statement table: ``(statement, query_id)`` for *sql*.

        A hit is exactly what :meth:`_derive` would build now: an entry
        is checked against ``Database.generation``, and what that stamp
        cannot cover, a tree holding a subquery predicate, is never
        stored.  A hit's rule firings are traced and counted again under
        the new query id.  A miss parses with *parser*; what is not a
        SELECT comes back as ``(parsed, None)``.
        """
        key = (sql, mode)
        metrics = self.pump.metrics
        with self._statements_lock:
            entry = self._statements.get(key)
            if entry is None:
                outcome = "miss"
            elif entry.generation == self.database.generation:
                outcome = "hit"
                self._statements.move_to_end(key)
            else:
                outcome = "stale"
                entry = None
                del self._statements[key]
        if entry is not None:
            query_id = self._next_query_id(tracer)
            for firing in entry.firings:
                if tracer is not None:
                    tracer.emit(PLAN_RULE_FIRED, query_id=query_id, **firing.as_dict())
                metrics.inc("planner.rules_fired", rule=firing.rule)
        else:
            query = parser(sql)
            if not isinstance(query, ast.SelectQuery):
                return query, None
            query_id = self._next_query_id(tracer)
            entry = self._derive(query, mode, tracer, query_id)
            if _holds_subquery(entry.logical):
                outcome = "unstored"
            else:
                with self._statements_lock:
                    self._statements[key] = entry
                    if len(self._statements) > STATEMENT_CAPACITY:
                        self._statements.popitem(last=False)
        metrics.inc("planner.statements", outcome=outcome)
        return entry, query_id

    def plan(self, sql, mode=ASYNC):
        """Build (and for async mode, rewrite) the plan for *sql*.

        ``mode="auto"`` applies asynchronous iteration exactly when the
        plan contains external virtual-table scans: local-only queries
        skip the rewrite.
        """
        tracer = self.tracer
        statement, query_id = self._statement(sql, mode, tracer)
        return self._lower(statement, tracer, query_id)

    def _resolve_mode(self, logical, mode):
        """Resolve ``auto`` against the (still-synchronous) logical plan.

        Local-only queries stay sequential — the rewrite buys nothing and
        the ReqSync machinery is pure overhead.  Plans with external scans
        go asynchronous.
        """
        if mode in (SYNC, ASYNC):
            return mode
        if mode != AUTO:
            raise PlanError("unknown execution mode {!r}".format(mode))
        return ASYNC if logical_ir.contains_external_scan(logical) else SYNC

    EXPLAIN_FORMS = ("logical", "optimized", "physical", "rules", "analyze")

    def explain(self, sql, mode=ASYNC, form="physical"):
        """The plan as text, at any layer of the planning stack.

        ``form``:

        - ``"physical"`` (default): the lowered operator tree — the
          historical Figure-2/3 style output.
        - ``"logical"``: the algebra tree straight out of the planner,
          before any rule runs.
        - ``"optimized"``: the logical tree after (for async mode)
          ReqSync placement.
        - ``"rules"``: one line per fired placement rule with
          before/after node counts.
        - ``"analyze"``: runs the query; per operator its rows, pulls and
          cumulative/self seconds, then the external requests, cache and
          call counts and the traced requests' overlap and latencies (an
          untraced engine is traced for this run only).
        """
        query = parse_select(sql)
        if form == "logical":
            return logical_ir.render(self._planner.plan_logical(query))
        if form not in self.EXPLAIN_FORMS:
            raise PlanError(
                "unknown explain form {!r}; expected one of {}".format(
                    form, "/".join(self.EXPLAIN_FORMS)
                )
            )
        if form == "analyze":
            return self._analyze(query, mode)
        tracer = self.tracer
        query_id = self._next_query_id(tracer)
        statement = self._derive(query, mode, tracer, query_id)
        if form == "optimized":
            return logical_ir.render(statement.logical)
        if form == "rules":
            firings = statement.firings
            if not firings:
                return "(no rules fired)"
            width = max(len(f.rule) for f in firings)
            return "\n".join(
                "{:<{width}}  nodes {} -> {}".format(
                    f.rule, f.before_nodes, f.after_nodes, width=width
                )
                for f in firings
            )
        return self._lower(statement, tracer, query_id).explain()

    def _analyze(self, query, mode):
        """The ``analyze`` form: run a freshly lowered plan, instrumented."""
        tracer = self.tracer if self.tracer is not None else self.pump.tracer
        borrowed = tracer is None  # then traced for this run only
        if borrowed:
            tracer = self.pump.tracer = Tracer(clock=self.clock)
        try:
            query_id = self._next_query_id(tracer)
            statement = self._derive(query, mode, tracer, query_id)
            context = self._context(statement, tracer, query_id)
            plan = lower(statement.logical, self.config, context)
            stats = instrument(plan, self.clock, tracer, query_id)
            before = self._counts()
            rows, elapsed = self._drain(plan, tracer, query_id, statement.mode)
            # Let trailing settlements land so every request is traced.
            self.pump.quiesce(timeout=0.5)
        finally:
            if borrowed:
                self.pump.tracer = None
        moved = {key: value - before[key] for key, value in self._counts().items()}
        misses = moved.pop("cache_misses", 0)
        if misses + moved.get("cache_hits", 0):
            moved["cache_hit_ratio"] = round(
                moved["cache_hits"] / (moved["cache_hits"] + misses), 3
            )
        if context is not None:
            moved.update(context.stats())
            # Failed calls the plan degraded, as its EVScans or ReqSyncs count them.
            moved["call_errors"] = sum(
                getattr(op, "call_errors", 0) for op in _context_holders(plan)
            )
        return _render_analysis(
            "{} mode, {} rows in {:.4f}s".format(statement.mode, len(rows), elapsed),
            stats,
            {k: v for k, v in moved.items() if v or k not in _REPORTED_WHEN_MOVED},
            tracer.events(query_id=query_id),
        )

    def _counts(self):
        """The counters whose movement the ``analyze`` form reports."""
        counts = {key: self.metrics.counter_value("pump." + key) for key in _PUMP_COUNTERS}
        for name, client in self.clients.items():
            counts["requests[{}]".format(name)] = client.requests_sent
        if self.cache is not None:
            counts.update(cache_hits=self.cache.hits, cache_misses=self.cache.misses)
        return counts

    # -- execution ---------------------------------------------------------------------

    def _run(self, sql, mode, deadline, parser=parse_select):
        """Execute what *parser* makes of *sql*: a SELECT here, the rest in
        :meth:`_run_other`."""
        tracer = self.tracer
        statement, query_id = self._statement(sql, mode, tracer, parser)
        if not isinstance(statement, _Statement):
            return self._run_other(statement)
        # The statement's idle plan, when no other run holds it; a run
        # that finds the slot empty lowers its own copy.
        context = self._context(statement, tracer, query_id, deadline)
        with self._statements_lock:
            idle, statement.idle = statement.idle, None
        if idle is None:
            plan = lower(statement.logical, self.config, context)
            holders = _context_holders(plan)
        else:
            plan, holders = idle
            for operator in holders:
                operator.context = context
        rows, elapsed = self._drain(plan, tracer, query_id, statement.mode)
        # Only a cleanly closed plan goes back, holding nothing of this run.
        for operator in holders:
            operator.context = None
        statement.idle = plan, holders
        return QueryResult(plan.schema.names(), rows, elapsed=elapsed)

    def _drain(self, plan, tracer, query_id, mode):
        """Run *plan* inside its query span: ``(rows, seconds)``."""
        if tracer is not None:
            tracer.emit(QUERY_SPAN, kind=BEGIN, query_id=query_id, mode=mode)
        started = self.clock.now()
        try:
            rows = self._drain_batches(plan)
        finally:
            if tracer is not None:
                tracer.emit(QUERY_SPAN, kind=END, query_id=query_id)
        return rows, self.clock.now() - started

    def _drain_batches(self, plan):
        """Run *plan* through the batch protocol; returns all rows.

        The plan is opened/closed via the exception-safe context manager
        (an abandoned generator would otherwise leak AEVScan pump
        registrations), and every produced batch feeds the ``batch.rows``
        size histogram so the vectorization's effective granularity is
        observable per engine.
        """
        observe = self.pump.metrics.observe
        rows = []
        extend = rows.extend
        for batch in execute_batches(plan, self.config.batch_size):
            observe("batch.rows", len(batch))
            extend(batch)
        return rows

    def execute(self, sql, mode=ASYNC, deadline=None):
        """Run a SELECT and materialize its result.

        *deadline* (a :class:`~repro.serve.deadline.Deadline`) bounds the
        query end-to-end: once the budget is spent (or the deadline
        cancelled) the query's wait for its external calls raises
        :class:`~repro.util.errors.QueryDeadlineExceeded` within one poll
        slice and the query's calls are cancelled.  The deadline bounds
        the query, not its calls: a call another query shares runs on.
        """
        return self._run(sql, mode, deadline)

    def run(self, statement_sql, mode=ASYNC, deadline=None):
        """Execute any supported statement (SELECT or DDL/DML)."""
        return self._run(statement_sql, mode, deadline, parse)

    def _run_other(self, statement):
        """Carry out a parsed statement that is not a SELECT."""
        if isinstance(statement, ast.Analyze):
            sizes = self.database.analyze(statement.table)
            return QueryResult(
                ["table", "rows", "columns"],
                [(name,) + size for name, size in sorted(sizes.items())],
            )
        if isinstance(statement, ast.CreateTable):
            self.database.create_table(statement.table, statement.columns)
            return QueryResult(["status"], [("created {}".format(statement.table),)])
        if isinstance(statement, ast.CreateIndex):
            self.database.create_index(
                statement.table, statement.column, statement.name
            )
            return QueryResult(
                ["status"], [("created index {}".format(statement.name),)]
            )
        if isinstance(statement, ast.DropIndex):
            self.database.drop_index(statement.name)
            return QueryResult(
                ["status"], [("dropped index {}".format(statement.name),)]
            )
        if isinstance(statement, ast.DropTable):
            self.database.drop_table(statement.table)
            return QueryResult(["status"], [("dropped {}".format(statement.table),)])
        if isinstance(statement, ast.Insert):
            table = self.database.table(statement.table)
            table.insert_many(statement.rows)
            return QueryResult(
                ["status"], [("inserted {} rows".format(len(statement.rows)),)]
            )
        if isinstance(statement, ast.Delete):
            table = self.database.table(statement.table)
            if statement.where is None:
                count = table.delete_where(lambda row: True)
            else:
                predicate = Binder(
                    table.schema.with_qualifier(statement.table)
                ).bind(statement.where)
                count = table.delete_where(lambda row: predicate.eval(row) is True)
            return QueryResult(["status"], [("deleted {} rows".format(count),)])
        raise PlanError("unsupported statement {!r}".format(statement))

    # -- statistics ------------------------------------------------------------

    def stats(self):
        """Aggregate engine/pump/cache/fault statistics."""
        payload = {
            "pump": self.pump.snapshot(),
            "engines": {
                name: client.engine.stats() for name, client in self.clients.items()
            },
            "requests_sent": {
                name: client.requests_sent for name, client in self.clients.items()
            },
        }
        latencies = self.pump.latencies()
        if latencies:
            payload["latencies"] = latencies
        if self.cache is not None:
            payload["cache"] = self.cache.detailed_stats()
        if self.faults is not None:
            payload["faults"] = self.faults.snapshot()
        return payload

    def metrics_snapshot(self):
        """The full metrics-registry snapshot (counters/gauges/histograms).

        ``"breakers"`` adds the per-destination circuit-breaker states
        (closed/open/half-open plus transition timestamps) so operators
        can tell *why* a destination is failing fast, not just how often.
        Retries, timeouts and breakers are the pump's, per engine.
        ``"trace"`` (present only when tracing is on) reports the ring
        buffer's fill and how many events it has **dropped** since the
        last clear: a non-zero count means any trace-derived view is
        incomplete.
        ``"kernels_process_wide"`` is :func:`~repro.relational.expr.kernel_stats`
        read now: every engine's expression kernels, not this one's alone.
        """
        payload = self.pump.metrics.snapshot()
        payload["kernels_process_wide"] = kernel_stats()
        payload["breakers"] = self.pump.breakers()
        tracer = self.tracer
        if tracer is not None:
            payload["trace"] = {
                "events": len(tracer),
                "capacity": tracer.capacity,
                "dropped": tracer.dropped,
            }
        return payload


def _context_holders(plan):
    """The operators of *plan* that take the query's ``AsyncContext``."""
    stack, holders = [plan], []
    while stack:
        operator = stack.pop()
        if isinstance(operator, (ExternalScan, ReqSync)):
            holders.append(operator)
        stack.extend(operator.children)
    return tuple(holders)


#: The pump's counters the ``analyze`` form reports the movement of.
_PUMP_COUNTERS = ("retries", "timeouts", "breaker_open_rejections", "coalesced")

#: External counts the ``analyze`` form shows only when they moved.
_REPORTED_WHEN_MOVED = _PUMP_COUNTERS + ("call_errors",)


def _render_analysis(header, stats, external, events):
    """The ``analyze`` form's text: operator table, external line, requests."""
    lines = [
        "analyze: " + header,
        "{:<58}{:>8}{:>9}{:>10}{:>10}".format(
            "operator", "rows", "pulls", "cum(s)", "self(s)"
        ),
    ]
    for stat in stats:
        label = "  " * stat.depth + stat.label
        if len(label) > 56:
            label = label[:53] + "..."
        self_seconds = stat.seconds - sum(child.seconds for child in stat.children)
        lines.append(
            "{:<58}{:>8}{:>9}{:>10.4f}{:>10.4f}".format(
                label, stat.rows, stat.pulls, stat.seconds, max(0.0, self_seconds)
            )
        )
    lines.append(
        "external: " + ", ".join("{}={}".format(*item) for item in sorted(external.items()))
    )
    traced = len(request_table(events))
    if traced:
        lines.append(
            "requests: {} traced, overlap factor {}".format(
                traced, overlap_factor(events)
            )
        )
    for destination, kinds in sorted(destination_latencies(events).items()):
        e2e = sorted(kinds["e2e"])
        if e2e:
            p50, p95, p99 = (
                e2e[min(len(e2e) - 1, int(q * len(e2e)))] * 1e3 for q in (0.5, 0.95, 0.99)
            )
            lines.append(
                "  {}: n={} e2e p50={:.1f}ms p95={:.1f}ms p99={:.1f}ms".format(
                    destination, len(e2e), p50, p95, p99
                )
            )
    return "\n".join(lines)
