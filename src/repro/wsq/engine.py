"""The WSQ engine facade."""

import threading
from collections import OrderedDict, namedtuple

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import RequestPump, default_pump
from repro.asynciter.reqsync import ReqSync
from repro.asynciter.rewrite import rewrite_logical
from repro.config import EngineConfig, default_cache
from repro.exec.operator import execute_batches
from repro.obs import Observability
from repro.obs.trace import BEGIN, END, PLAN_RULE_FIRED, QUERY_SPAN, Tracer
from repro.plan import logical as logical_ir
from repro.plan.physical import lower
from repro.plan.planner import Planner
from repro.relational.expr import SubqueryMixin, kernel_stats
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
from repro.web.shardclient import ShardedSearchClient
from repro.web.sharding import sharded_view
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
    """What parse → bind → rules → rewrite make of one SELECT text.

    The finished logical tree, every rule firing that produced it, the
    resolved *mode* (never "auto"), whether the tree holds an *external*
    scan, and the ``Database.generation`` it was planned under.  A stored
    one is shared by every execution and thread that hits it: ``lower``
    builds operators from it and nothing writes to it.

    ``idle`` is the one lowered plan :meth:`WsqEngine._run` keeps between
    executions, as ``(plan, holders)``: *holders* are its operators that
    take the query's ``AsyncContext``, detached while the plan is idle.
    """

    idle = None


def _holds_subquery(logical):
    """Does a predicate of the tree embed a subplan (``IN``/``EXISTS``)?

    Such a predicate memoises its subquery's rows on itself, which is
    execution state: a tree holding one is planned per execution.
    """
    stack = [getattr(node, "predicate", None) for node in logical_ir.walk(logical)]
    while stack:
        expr = stack.pop()
        if isinstance(expr, SubqueryMixin):
            return True
        for slot in getattr(type(expr), "__slots__", ()):
            value = getattr(expr, slot)
            stack.extend(value if isinstance(value, tuple) else (value,))
    return False


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
        in the engine's trace).  ``None`` takes the process-wide pump —
        or, for an observed, resilient or single-flight engine, a
        dedicated one wired to *obs* and *resilience*, because attaching
        those to the shared pump would change every other engine.
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
    cost_model / calibration:
        A :class:`~repro.plan.cost.CostModel` for ``mode="auto"``,
        ``explain(form="costs")`` and the optimizer's cost gates, and a
        :class:`~repro.obs.calibration.CalibrationProfile` (or a path
        to a saved one) to re-price it from measured figures.
    config:
        The :class:`~repro.config.EngineConfig` (``None`` resolves one
        from the environment).  Any of its field names may also be given
        as a keyword — ``WsqEngine(shards=4, on_error="drop")`` — and
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
        cost_model=None,
        calibration=None,
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
        self.resilience = resilience
        self.clock = resolve_clock(obs.clock if obs is not None else None)
        if pump is None:
            if resilience is None and obs is None and not config.single_flight:
                pump = default_pump()
            else:
                pump = RequestPump(
                    name="reqpump-engine",
                    resilience=resilience,
                    tracer=obs.tracer if obs is not None else None,
                    metrics=obs.metrics if obs is not None else None,
                    clock=self.clock,
                    single_flight=config.single_flight is not False,
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
            # Only an observed engine's registry is the engine's alone;
            # the shared default pump's would mix every engine's caches.
            cache.attach_observability(metrics=obs.metrics, tracer=obs.tracer)
        self.cost_model = cost_model
        if calibration is not None:
            from repro.obs.calibration import CalibrationProfile

            if isinstance(calibration, str):
                calibration = CalibrationProfile.load(calibration)
            self._ensure_cost_model().apply_profile(calibration)
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

    # Three views of ``config`` kept for the frozen benchmark adapter
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

    @property
    def batch_size(self):
        """Rows per operator pull (``config.batch_size``)."""
        return self.config.batch_size

    @property
    def dedup_calls(self):
        """Per-query in-flight deduplication (``config.dedup_calls``)."""
        return self.config.dedup_calls

    def _build_client(self, engine_name):
        """The web client for one engine: sharded broker or monolith."""
        engine = self.web.engine(engine_name)
        if self.config.shards > 1:
            return ShardedSearchClient(
                sharded_view(engine, self.config.shards),
                latency=self.latency,
                cache=self.cache,
                faults=self.faults,
                resilience=self.resilience,
                obs=self.obs,
            )
        return SearchClient(
            engine,
            latency=self.latency,
            cache=self.cache,
            faults=self.faults,
            resilience=self.resilience,
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
        """Build -> rules -> (async mode) ReqSync placement: a :class:`_Statement`."""
        generation = self.database.generation  # before the catalog is read
        metrics = self.pump.metrics
        logical = self._planner.plan_logical(query)
        logical, firings = self._planner.optimize(
            logical,
            tracer=tracer,
            metrics=metrics,
            query_id=query_id,
            cost_model=self.cost_model,
        )
        mode = self._resolve_mode(logical, mode)
        external = logical_ir.contains_external_scan(logical)
        if mode == ASYNC:
            logical, placement = rewrite_logical(
                logical,
                self.config,
                tracer=tracer,
                metrics=metrics,
                query_id=query_id,
            )
            firings = firings + placement
        return _Statement(logical, firings, mode, external, generation)

    def _context(self, statement, tracer, query_id, deadline=None):
        """One execution's ``AsyncContext``, or None for a local-only plan."""
        if statement.mode == ASYNC or statement.external:
            # One call outstanding at a time leaves nothing in flight to
            # deduplicate against, so sync contexts skip the bookkeeping.
            return AsyncContext(
                self.pump,
                dedup=self.config.dedup_calls and statement.mode == ASYNC,
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
        cannot cover is never stored — a tree holding a subquery
        predicate, and any plan priced by an attached cost model (a
        function of live measurements).  A hit's rule firings are traced
        and counted again under the new query id.  A miss parses with
        *parser*; what is not a SELECT comes back as ``(parsed, None)``.
        """
        key = (sql, mode)
        metrics = self.pump.metrics
        entry = None
        outcome = "unstored"
        if self.cost_model is None:
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
            if outcome == "unstored" or _holds_subquery(entry.logical):
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
        plan contains external virtual-table scans (optionally arbitrated
        by a :class:`~repro.plan.cost.CostModel` passed as
        ``self.cost_model``): local-only queries skip the rewrite.
        """
        tracer = self.tracer
        statement, query_id = self._statement(sql, mode, tracer)
        return self._lower(statement, tracer, query_id)

    def _resolve_mode(self, logical, mode):
        """Resolve ``auto`` against the (still-synchronous) logical plan.

        Local-only queries stay sequential — the rewrite buys nothing and
        the ReqSync machinery is pure overhead.  Plans with external scans
        go asynchronous; with a :class:`~repro.plan.cost.CostModel`
        attached, only when the model expects the rewrite to pay off
        (it essentially always does once a call exists, but a zero-latency
        model with per-call overhead can disagree).
        """
        if mode in (SYNC, ASYNC):
            return mode
        if mode != AUTO:
            raise PlanError("unknown execution mode {!r}".format(mode))
        if not logical_ir.contains_external_scan(logical):
            return SYNC
        if self.cost_model is not None:
            sync_plan = lower(logical, self.config)
            sync_estimate = self.cost_model.estimate(sync_plan)
            sync_seconds = self.cost_model.seconds(sync_plan)
            # Model the consolidated rewrite without building it: the same
            # calls collapse into one blocking wave plus patch work.
            async_seconds = (
                sync_seconds
                - sync_estimate.waves * self.cost_model.latency_mean
                + 1.0 * self.cost_model.latency_mean
                + sync_estimate.rows * self.cost_model.cpu_per_patch
            )
            return ASYNC if async_seconds < sync_seconds else SYNC
        return ASYNC

    EXPLAIN_FORMS = ("logical", "optimized", "physical", "rules", "costs")

    def explain(self, sql, mode=ASYNC, form="physical"):
        """The plan as text, at any layer of the planning stack.

        ``form``:

        - ``"physical"`` (default): the lowered operator tree — the
          historical Figure-2/3 style output.
        - ``"logical"``: the algebra tree straight out of the planner,
          before any rule runs.
        - ``"optimized"``: the logical tree after the relational
          pipeline and (for async mode) ReqSync placement.
        - ``"rules"``: one line per fired optimizer rule with
          before/after node counts.
        - ``"costs"``: the physical form with a per-operator cost column
          (uses ``self.cost_model`` or a default
          :class:`~repro.plan.cost.CostModel`).
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
        plan = self._lower(statement, tracer, query_id)
        if form == "costs":
            model = self.cost_model
            if model is None:
                from repro.plan.cost import CostModel

                model = CostModel(
                    latency_mean=self._latency_mean(),
                    cache=self.cache,
                    shards=self.config.shards,
                )
            text = model.annotated_explain(plan)
            if model.calibrated:
                static = model.uncalibrated()
                header = (
                    "-- cost model: calibrated ({})\n"
                    "-- this plan: calibrated ~{:.4f}s vs static ~{:.4f}s "
                    "(latency_mean {:.4f}s vs {:.4f}s)\n".format(
                        model.profile.summary(),
                        model.seconds(plan),
                        static.seconds(plan),
                        model.latency_mean,
                        static.latency_mean,
                    )
                )
                return header + text
            return text
        return plan.explain()

    def _latency_mean(self):
        """Mean per-request latency in seconds (for the default cost model)."""
        mean = getattr(self.latency, "mean", None)
        if callable(mean):
            return mean()
        if isinstance(mean, (int, float)):
            return float(mean)
        return 0.05

    # -- calibration -----------------------------------------------------------

    def _ensure_cost_model(self):
        """``self.cost_model``, creating the default lazily."""
        if self.cost_model is None:
            from repro.plan.cost import CostModel

            self.cost_model = CostModel(
                latency_mean=self._latency_mean(),
                cache=self.cache,
                shards=self.config.shards,
            )
        return self.cost_model

    def recalibrate(self, profile=None, policy=None):
        """Re-price ``self.cost_model`` from measured figures.

        Without *profile*, one is built from the engine's own tracer,
        metrics registry, and cache (so a traced workload is all the
        setup needed).  With a
        :class:`~repro.obs.calibration.CalibrationPolicy` as *policy*,
        the profile must pass its sample-floor/completeness gate first.

        Returns ``(applied, profile, reason)`` — ``reason`` explains a
        rejection (``"ok"`` when applied), and the profile is returned
        either way so callers can inspect or persist it.
        """
        if profile is None:
            from repro.obs.calibration import CalibrationProfile

            profile = CalibrationProfile.from_sources(
                tracer=self.tracer,
                metrics=self.metrics,
                cache=self.cache,
                created_at=self.clock.now(),
            )
        if policy is not None:
            ok, reason = policy.admits(profile)
            if not ok:
                return False, profile, reason
        self._ensure_cost_model().apply_profile(profile)
        return True, profile, "ok"

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
        if tracer is not None:
            tracer.emit(
                QUERY_SPAN, kind=BEGIN, query_id=query_id, mode=statement.mode
            )
        started = self.clock.now()
        try:
            rows = self._drain_batches(plan)
        finally:
            if tracer is not None:
                tracer.emit(QUERY_SPAN, kind=END, query_id=query_id)
        elapsed = self.clock.now() - started
        # Only a cleanly closed plan goes back, holding nothing of this run.
        for operator in holders:
            operator.context = None
        statement.idle = plan, holders
        return QueryResult(plan.schema.names(), rows, elapsed=elapsed)

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
        query end-to-end: it tightens every external call's timeout to
        ``min(policy.call_timeout, deadline.remaining())`` and raises
        :class:`~repro.util.errors.QueryDeadlineExceeded` at the next
        checkpoint once the budget is spent (or the deadline cancelled).
        """
        return self._run(sql, mode, deadline)

    def run(self, statement_sql, mode=ASYNC, deadline=None):
        """Execute any supported statement (SELECT or DDL/DML)."""
        return self._run(statement_sql, mode, deadline, parse)

    def _run_other(self, statement):
        """Carry out a parsed statement that is not a SELECT."""
        if isinstance(statement, ast.Analyze):
            stats = self.database.analyze(statement.table)
            return QueryResult(
                ["table", "rows", "columns"],
                [
                    (name, table_stats.row_count, len(table_stats.columns))
                    for name, table_stats in sorted(stats.items())
                ],
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
                from repro.plan.binder import Binder

                predicate = Binder(
                    table.schema.with_qualifier(statement.table)
                ).bind(statement.where)
                count = table.delete_where(lambda row: predicate.eval(row) is True)
            return QueryResult(["status"], [("deleted {} rows".format(count),)])
        raise PlanError("unsupported statement {!r}".format(statement))

    # -- profiling --------------------------------------------------------------

    def profile(self, sql, mode=ASYNC):
        """Execute *sql* with per-operator instrumentation *and* tracing.

        Returns a :class:`~repro.wsq.profile.ProfileReport` carrying the
        query result, per-operator row/time counters, engine-level
        deltas (requests sent, cache hits, dedup savings), the trace
        handle, and the per-external-request breakdown.  When the engine
        has no tracer of its own, a temporary one is attached to the
        pump for the duration of the run.
        """
        from repro.wsq.profile import ProfileReport, profile_plan

        query = parse_select(sql)
        tracer = self.tracer
        borrowed_tracer = False
        if tracer is None:
            tracer = Tracer(clock=self.clock)
            borrowed_tracer = True
            self.pump.tracer = tracer
        try:
            query_id = self._next_query_id(tracer)
            statement = self._derive(query, mode, tracer, query_id)
            plan = self._lower(statement, tracer, query_id)
            mode = statement.mode
            wrapped, stats = profile_plan(
                plan, clock=self.clock, tracer=tracer, query_id=query_id
            )
            holders = _context_holders(plan)
            context = holders[0].context if holders else None
            requests_before = {
                name: client.requests_sent for name, client in self.clients.items()
            }
            cache_hits_before = self.cache.hits if self.cache is not None else 0
            cache_misses_before = (
                self.cache.misses if self.cache is not None else 0
            )
            pump_before = self.pump.stats.snapshot()
            tracer.emit(QUERY_SPAN, kind=BEGIN, query_id=query_id, mode=mode, sql=sql)
            started = self.clock.now()
            try:
                rows = self._drain_batches(wrapped)
            finally:
                tracer.emit(QUERY_SPAN, kind=END, query_id=query_id)
            elapsed = self.clock.now() - started
            # Let trailing settlement callbacks land so the report's
            # per-request breakdown covers every call.
            self.pump.quiesce(timeout=0.5)
        finally:
            if borrowed_tracer:
                self.pump.tracer = None
        result = QueryResult(plan.schema.names(), rows, elapsed=elapsed)
        deltas = {
            "requests[{}]".format(name): client.requests_sent
            - requests_before[name]
            for name, client in self.clients.items()
        }
        if self.cache is not None:
            hits_moved = self.cache.hits - cache_hits_before
            misses_moved = self.cache.misses - cache_misses_before
            deltas["cache_hits"] = hits_moved
            if hits_moved + misses_moved:
                deltas["cache_hit_ratio"] = round(
                    hits_moved / (hits_moved + misses_moved), 3
                )
        if context is not None:
            deltas["dedup_hits"] = context.dedup_hits
            deltas["calls_registered"] = context.calls_registered
        # Degradation / resilience accounting (only when anything happened,
        # so fault-free profiles render exactly as before).
        call_errors = _sum_plan_attr(wrapped, "call_errors")
        if context is not None:
            call_errors = max(call_errors, context.call_errors)
        if call_errors:
            deltas["call_errors"] = call_errors
        pump_after = self.pump.stats.snapshot()
        for counter in (
            "retries",
            "timeouts",
            "breaker_open_rejections",
            "coalesced",
        ):
            moved = pump_after[counter] - pump_before[counter]
            if moved:
                deltas[counter] = moved
        return ProfileReport(
            sql, mode, result, stats, deltas, trace=tracer, query_id=query_id
        )

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
        ``"destinations"`` (present only when the search tier is
        sharded) adds each engine's per-shard scatter/gather view —
        requests, failures, degraded gathers, hedge tallies, and the
        per-shard breaker state.
        ``"trace"`` (present only when tracing is on) reports the ring
        buffer's fill and — crucially for calibration — how many events
        it has **dropped** since the last clear: a non-zero count means
        any trace-derived view is incomplete.
        ``"kernels_process_wide"`` is :func:`~repro.relational.expr.kernel_stats`
        read now: every engine's expression kernels, not this one's alone.
        """
        payload = self.pump.metrics.snapshot()
        payload["kernels_process_wide"] = kernel_stats()
        payload["breakers"] = self.pump.breakers()
        destinations = {
            name: client.shard_stats()
            for name, client in self.clients.items()
            if hasattr(client, "shard_stats")
        }
        if destinations:
            payload["destinations"] = destinations
        tracer = self.tracer
        if tracer is not None:
            payload["trace"] = {
                "events": len(tracer),
                "capacity": tracer.capacity,
                "dropped": tracer.dropped,
            }
        return payload

    def observability(self):
        """The attached bundle, creating a disabled one on first use."""
        if self.obs is None:
            self.obs = Observability(metrics=self.pump.metrics, clock=self.clock)
        return self.obs


def _context_holders(plan):
    """The operators of *plan* that take the query's ``AsyncContext``."""
    stack, holders = [plan], []
    while stack:
        operator = stack.pop()
        if isinstance(operator, (ExternalScan, ReqSync)):
            holders.append(operator)
        stack.extend(operator.children)
    return tuple(holders)


def _sum_plan_attr(plan, attribute):
    """Sum *attribute* over a (possibly profile-wrapped) plan tree."""
    inner = getattr(plan, "inner", plan)
    total = getattr(inner, attribute, 0) or 0
    for child in plan.children:
        total += _sum_plan_attr(child, attribute)
    return total


