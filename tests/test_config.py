"""One ``EngineConfig``, resolved once.

Every engine knob is a field of :class:`repro.config.EngineConfig`;
``EngineConfig.resolve`` applies *explicit > environment > default* and
validates at construction; and the planner, the ReqSync rewrite and
lowering receive the same immutable object.  The environment is injected
as a plain dict throughout — no test here touches ``os.environ``.
"""

import ast
import dataclasses
import inspect
import pathlib
import re

import pytest

from repro.asynciter.pump import PumpLimits, RequestPump
from repro.asynciter.reqsync import ReqSync
from repro.asynciter.resilience import CircuitBreakerConfig, ResiliencePolicy, RetryPolicy
from repro.config import ENV_VARIABLES, FIELD_ENV, EngineConfig, default_cache
from repro.obs import Observability
from repro.plan.logical import LogicalReqSync
import repro.serve
from repro.serve import Deadline, QueryService, TenantPolicy
from repro.util.errors import ConfigError, PlanError, ReproError
from repro.vtables.evscan import EVScan
from repro.web.cache import ResultCache, make_cache
from repro.web.client import SearchClient
from repro.wsq import WsqEngine

SQL = "Select Name, Count From States, WebCount Where Name = T1"
#: WebCount binds to a WebPages URL, so consolidation cannot merge the
#: two ReqSyncs: the default plan keeps both.
SQL_TWO_REQSYNCS = (
    "Select Name, URL, WebCount.Count From States, WebPages, WebCount "
    "Where Name = WebPages.T1 and Rank <= 2 and WebCount.T1 = URL"
)

#: field -> (default, an explicit non-default value)
FIELDS = {
    "on_error": ("raise", "null"),
    "batch_size": (256, 3),
}

#: field -> (raw environment text, the value it resolves to)
ENV_VALUES = {
    "batch_size": (" 7 ", 7),
}


def _walk(op):
    yield op
    inner = getattr(op, "inner", None)
    if inner is not None:
        yield from _walk(inner)
    for child in op.children:
        yield from _walk(child)


def _only(plan, cls):
    found = [op for op in _walk(plan) if isinstance(op, cls)]
    assert found, "no {} in plan".format(cls.__name__)
    return found


class TestResolve:
    def test_fields_are_exactly_the_documented_two(self):
        names = [field.name for field in dataclasses.fields(EngineConfig)]
        assert names == list(FIELDS)
        assert set(FIELD_ENV) == set(ENV_VALUES)

    @pytest.mark.parametrize("name", FIELDS)
    def test_explicit_beats_environment_beats_default(self, name):
        default, explicit = FIELDS[name]
        assert getattr(EngineConfig.resolve(environ={}), name) == default
        environ = {}
        if name in FIELD_ENV:
            raw, from_env = ENV_VALUES[name]
            environ = {FIELD_ENV[name]: raw}
            assert getattr(EngineConfig.resolve(environ=environ), name) == from_env
        resolved = EngineConfig.resolve(environ=environ, **{name: explicit})
        assert getattr(resolved, name) == explicit

    @pytest.mark.parametrize("name", FIELD_ENV)
    def test_empty_variable_counts_as_unset(self, name):
        config = EngineConfig.resolve(environ={FIELD_ENV[name]: "  "})
        assert getattr(config, name) == FIELDS[name][0]

    @pytest.mark.parametrize("name", FIELD_ENV)
    def test_explicit_none_means_not_given(self, name):
        raw, from_env = ENV_VALUES[name]
        config = EngineConfig.resolve(
            environ={FIELD_ENV[name]: raw}, **{name: None}
        )
        assert getattr(config, name) == from_env

    def test_other_variables_are_ignored(self):
        environ = {"REPRO_ON_ERROR": "drop", "REPRO_PARALLEL": "4"}
        assert EngineConfig.resolve(environ=environ) == EngineConfig()

    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.batch_size = 1
        assert hash(config) == hash(EngineConfig())

    def test_override_returns_a_new_config(self):
        base = EngineConfig(batch_size=2)
        changed = base.override(on_error="drop", batch_size=None)
        assert (changed.batch_size, changed.on_error) == (2, "drop")
        assert base.on_error == "raise"
        assert base.override() is base

    @pytest.mark.parametrize(
        "build",
        [
            lambda **kw: EngineConfig(**kw),
            lambda **kw: EngineConfig.resolve(environ={}, **kw),
            lambda **kw: EngineConfig().override(**kw),
        ],
        ids=["constructor", "resolve", "override"],
    )
    @pytest.mark.parametrize(
        "name, value",
        [
            ("on_error", "bogus"),
            ("batch_size", 0),
            ("batch_size", "many"),
            ("batch_size", 2.5),
            ("batch_size", True),
        ],
    )
    def test_invalid_value_names_its_field(self, build, name, value):
        with pytest.raises(ConfigError, match=name):
            build(**{name: value})

    @pytest.mark.parametrize(
        "variable, raw",
        [
            ("REPRO_BATCH_SIZE", "abc"),
            ("REPRO_BATCH_SIZE", "0"),
        ],
    )
    def test_invalid_variable_names_itself(self, variable, raw):
        with pytest.raises(ConfigError, match=r"\$" + variable):
            EngineConfig.resolve(environ={variable: raw})

    def test_one_error_type(self):
        # PlanError for callers that caught the old first-query failure,
        # ReproError for callers that caught the old env-parser failure.
        assert issubclass(ConfigError, PlanError)
        assert issubclass(ConfigError, ReproError)

    def test_unknown_option_is_refused_by_name(self):
        with pytest.raises(ConfigError, match="workers"):
            EngineConfig.resolve(environ={}, workers=2)
        with pytest.raises(ConfigError, match="workers"):
            EngineConfig().override(workers=2)

    def test_retired_options_are_refused_like_any_unknown_one(self):
        # The optimizer pipeline and access-path selection have no
        # switch, and neither do ReqSync's emission, consolidation, the
        # join order, call deduplication or the built pump's coalescing.
        for name in RETIRED_OPTIONS:
            with pytest.raises(ConfigError, match=name):
                EngineConfig.resolve(environ={}, **{name: ()})
            with pytest.raises(ConfigError, match=name):
                WsqEngine(**{name: ()})
        environ = {_spell("REPRO_", "RULES"): "all"}
        assert EngineConfig.resolve(environ=environ) == EngineConfig()

    @pytest.mark.parametrize("cls", [ReqSync, LogicalReqSync])
    def test_reqsync_has_one_emission_mode(self, cls):
        parameters = inspect.signature(cls).parameters
        assert not {"stream", _spell("preserve_", "order")} & set(parameters)


class TestDefaultCache:
    @pytest.mark.parametrize("spec", ["", "off", "none", "0", " OFF "])
    def test_off(self, spec):
        assert default_cache({"REPRO_CACHE": spec}) is None
        assert default_cache({}) is None

    def test_tiers_and_ttl(self):
        assert type(default_cache({"REPRO_CACHE": "memory"})) is ResultCache
        memory = default_cache({"REPRO_CACHE": "Memory", "REPRO_CACHE_TTL": "2.5"})
        assert type(memory) is ResultCache
        assert memory.ttl == 2.5

    def test_invalid_values_name_their_variable(self):
        with pytest.raises(ConfigError, match=r"\$REPRO_CACHE\b.*off/memory/disk"):
            default_cache({"REPRO_CACHE": "floppy"})
        with pytest.raises(ConfigError, match="off/memory/disk"):
            default_cache({"REPRO_CACHE": "tiered"})
        with pytest.raises(ConfigError, match=r"\$REPRO_CACHE_TTL"):
            default_cache({"REPRO_CACHE": "memory", "REPRO_CACHE_TTL": "soon"})

    @pytest.mark.parametrize("raw", ["-5", "nan", "-inf"])
    def test_a_negative_or_nan_ttl_names_its_variable(self, raw):
        # Accepted, such a TTL expired every entry at once: each lookup a
        # miss and an eviction, the cache silently off.
        with pytest.raises(ConfigError, match=r"\$REPRO_CACHE_TTL.*>= 0"):
            default_cache({"REPRO_CACHE": "memory", "REPRO_CACHE_TTL": raw})

    def test_env_variables_lists_everything_that_is_read(self):
        class Recording(dict):
            def __init__(self, *args):
                super().__init__(*args)
                self.read = set()

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

        environ = Recording({"REPRO_CACHE": "memory"})
        EngineConfig.resolve(environ=environ)
        default_cache(environ)
        assert environ.read == set(ENV_VARIABLES)


class TestEngineConstruction:
    def test_invalid_knobs_fail_at_construction(self, web, paper_db):
        with pytest.raises(ConfigError, match="on_error"):
            WsqEngine(database=paper_db, web=web, on_error="bogus", batch_size=0)
        with pytest.raises(ConfigError, match="workers"):
            WsqEngine(database=paper_db, web=web, workers=2)

    def test_the_search_tier_has_no_shard_option(self, web, paper_db):
        with pytest.raises(ConfigError, match="shards"):
            WsqEngine(database=paper_db, web=web, shards=4)
        with pytest.raises(ConfigError, match="shards"):
            EngineConfig(shards=2)

    def test_the_engine_takes_no_calibration_file(self, web, paper_db):
        with pytest.raises(ConfigError, match="calibration"):
            WsqEngine(database=paper_db, web=web, calibration="x")
        with pytest.raises(ConfigError, match="cost_model"):
            WsqEngine(database=paper_db, web=web, cost_model=object())

    def test_keywords_override_the_given_config(self, web, paper_db):
        config = EngineConfig(on_error="drop", batch_size=9)
        engine = WsqEngine(database=paper_db, web=web, config=config, batch_size=4)
        assert (engine.config.on_error, engine.config.batch_size) == ("drop", 4)
        assert config.batch_size == 9
        assert WsqEngine(database=paper_db, web=web, config=config).config is config

    def test_every_layer_receives_the_same_object(self, web, paper_db):
        engine = WsqEngine(database=paper_db, web=web)
        assert engine._planner.options is engine.config
        assert engine.batch_size == engine.config.batch_size

    def test_a_given_pump_is_used_as_built(self, web, paper_db):
        pump = RequestPump(PumpLimits(), name="given")
        try:
            engine = WsqEngine(
                database=paper_db,
                web=web,
                pump=pump,
                obs=Observability.enabled(),
                resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=2)),
            )
            assert engine.pump is pump
            assert (pump.tracer, pump.resilience, pump.single_flight) == (
                None,
                None,
                False,
            )
        finally:
            pump.shutdown()

    def test_one_registry_with_a_given_pump_and_obs(self, web, paper_db):
        """``pump=`` with ``obs=`` used to split the engine's metrics:
        cache counters in ``obs.metrics``, request histograms in the
        pump's registry."""
        pump = RequestPump(PumpLimits(), name="given")
        try:
            engine = WsqEngine(
                database=paper_db,
                web=web,
                cache=make_cache("memory"),
                pump=pump,
                obs=Observability.enabled(),
            )
            engine.execute(SQL)
            engine.execute(SQL)
            assert engine.metrics is pump.metrics is engine.obs.metrics
            snapshot = engine.metrics_snapshot()
            counters = "\n".join(snapshot["counters"])
            assert "cache.hit" in counters
            assert "pump.registered" in counters
            assert any("e2e" in name for name in snapshot["histograms"])
        finally:
            pump.shutdown()


class TestEnginePathsAgree:
    """Sync and async plans carry the same effective knobs, however the
    config reached the engine."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"on_error": "null"},
            {"config": EngineConfig(on_error="null")},
            {"config": EngineConfig(on_error="drop"), "on_error": "null"},
        ],
        ids=["engine-kwarg", "config", "kwarg-over-config"],
    )
    def test_on_error_reaches_both_modes(self, web, paper_db, kwargs):
        engine = WsqEngine(database=paper_db, web=web, **kwargs)
        sync_plan = engine.plan(SQL, mode="sync")
        async_plan = engine.plan(SQL, mode="async")
        assert {s.on_error for s in _only(sync_plan, EVScan)} == {"null"}
        assert {r.on_error for r in _only(async_plan, ReqSync)} == {"null"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 7},
            {"config": EngineConfig(batch_size=7)},
            {"config": EngineConfig(batch_size=64), "batch_size": 7},
        ],
        ids=["engine-kwarg", "config", "kwarg-over-config"],
    )
    def test_batch_size_stamped_in_both_modes(self, web, paper_db, kwargs):
        engine = WsqEngine(database=paper_db, web=web, **kwargs)
        for mode in ("sync", "async"):
            plan = engine.plan(SQL, mode=mode)
            sizes = {op.batch_size for op in _walk(plan)}
            assert sizes == {7}, "mode={} resolved {}".format(mode, sizes)

    def test_results_agree_under_drop_policy(self, web, paper_db):
        """Same rows from sync and async when both degrade with 'drop'."""
        engine = WsqEngine(database=paper_db, web=web, on_error="drop")
        sync_rows = engine.run(SQL, mode="sync").rows
        async_rows = engine.run(SQL, mode="async").rows
        assert sorted(sync_rows) == sorted(async_rows)

    def test_deadline_reaches_every_reqsync_through_the_context(
        self, web, paper_db, monkeypatch
    ):
        """The config carries no deadline: ``execute(deadline=)`` puts it
        on the query's context, which is where each ReqSync reads it
        while the plan runs."""
        engine = WsqEngine(database=paper_db, web=web)
        executed = []
        drain = engine._drain_batches

        def watched(plan):
            executed.append([r.context for r in _only(plan, ReqSync)])
            return drain(plan)

        monkeypatch.setattr(engine, "_drain_batches", watched)
        deadline = Deadline(30.0)
        engine.execute(SQL_TWO_REQSYNCS, deadline=deadline)
        (contexts,) = executed
        assert len(contexts) == 2
        assert all(context.deadline is deadline for context in contexts)
        assert len({id(context) for context in contexts}) == 1


# -- structural guard ------------------------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _spell(*parts):
    # Spelled in pieces so the repo-wide search below — the acceptance
    # check of the change that retired these names — stays empty here too.
    return "".join(parts)


#: The config fields that only tests ever set, with ``rules`` and the
#: index switch before them.
RETIRED_OPTIONS = [
    "rules",
    _spell("use_", "indexes"),
    "wait_timeout",
    "stream",
    _spell("pull_above_", "order_sensitive"),
    "consolidate",
    "reorder",
    _spell("cost_", "reorder"),
    "dedup_calls",
    "single_flight",
]

#: The structs, env parsers and the intra-query worker-thread path this
#: file's config replaced, then the optimizer's pack knob chain, the
#: index switch, the result-cache tier classes and the client's copy of
#: the cache-hit signal (``web.cache_hit_fraction``, a benchmark metric,
#: does not match), then ReqSync's ordered mode, the rule that used it
#: and the join reorderer, then the serving layer's SLO accounting, its
#: per-tenant active budget and its unused options, then the sharded
#: search tier (its client, view, stats, cost pricing, variable, flag
#: and trace events), then the cost model's unset knobs, calibration
#: profile persistence and policy, and served re-pricing, then the
#: result cache's freshness policy (per-kind TTLs, serve-stale, negative
#: caching and the failure replay) and the breaker's unset knobs, then
#: the physical rewrite adapter, the physical-to-logical lift, structural
#: plan identity and the unused grandparent lookup, then the relational
#: rewrite pass (its six rules, their pipeline, the cost gate, the bag
#: union only one of them built, and the bottom-up scan order), then the
#: process-wide pump (its accessor, singleton and lock), the blocking
#: conveniences' trip through it and the pump's separate start-up, then
#: write-ahead logging (the log, its recovery, the journal hooks, the
#: pool policy that kept dirty pages until a checkpoint, the checkpoint)
#: and the public names no caller outside ``tests/`` used, then the rule
#: framework under ReqSync placement (its engine, context, base class,
#: rule classes, pack, fire budget and module) and four more names
#: nothing called or read, then the second registration route (the
#: batched register methods and their burst counter) and the logical
#: in-memory scan nothing built, then the request pump's reading of query
#: deadlines (its expiry counter, its spent-deadline check and the
#: deadline's timeout composition), then the pump's own thread (its idle
#: linger, its turn loop, its shutdown counter and the registrant's wait
#: for the thread to take a burst), then the cost model (its class, its
#: calibration profile and how a profile was applied, the engine's
#: re-pricing from its own trace, the cost-annotated explain, the
#: Figure 7 chooser and the registry lookup only calibration read), then
#: the slotted row page (its class, slot-directory reader, record-size
#: bound, per-record codec, free-slot search and the heap's vacuum), then
#: the query service's threads (the worker pool, its polling pick, the
#: reaper, its interval and sweeps, and the thread names), then the
#: profiler's second execution path (its report, its wrapper operator, the
#: plan wrapping and child rewiring, and the wrapper-aware attribute sum),
#: then the grouped query's second binder and ReqSync's own copies of the
#: ``on_error`` policy names; none may come back in code, CI or the docs.
RETIRED = [
    _spell("Planner", "Options"),
    _spell("Rewrite", "Settings"),
    _spell("Exec", "Options"),
    _spell("from_", "knobs"),
    _spell("default_", "shards"),
    _spell("default_", "parallelism"),
    _spell("default_", "rules"),
    _spell("cache_from", "_env"),
    _spell("Ex", "change"),
    _spell("partition_", "pages"),
    _spell("REPRO_", "PARALLELISM"),
    _spell("REPRO_", "RULES"),
    _spell("parse_rules", "_spec"),
    _spell("resolve_", "packs"),
    _spell("use_", "indexes"),
    _spell("Tiered", "ResultCache"),
    _spell("DiskCache", "Tier"),
    _spell("_Tier", "Telemetry"),
    _spell("purge_", "expired"),
    _spell(r"web\.cache_", r"hits?\b"),
    _spell("pull_above_", "order_sensitive"),
    _spell("preserve_", "order"),
    _spell("cost_", "reorder"),
    _spell("PullAbove", "SortOrdered"),
    _spell("pull_above", "_sort"),
    _spell("_order_", "relations"),
    _spell("_insert_", "after"),
    _spell("slo_", "seconds"),
    _spell("slo_", "target"),
    _spell("max_", "active"),
    _spell("default_", "timeout"),
    _spell(r"serve\.", "slo"),
    _spell("render_slo", "_report"),
    _spell("slo_counters", "_view"),
    _spell("SERVE_SLO", "_VIOLATION"),
    _spell("observe_service", "_time"),
    _spell("Sharded", "Search"),
    _spell("shard", "client"),
    _spell("sharded", "_view"),
    _spell("shard", "_stats"),
    _spell("scatter", "_latency"),
    _spell("REPRO_", "SHARDS"),
    _spell("--", "shards"),
    _spell(r"shard\.", "(scatter|gather|outage)"),
    _spell("Calibration", "Policy"),
    _spell("maybe_", "recal", "ibrate"),
    _spell("validate_", "profile"),
    _spell("assert_valid", "_profile"),
    _spell("PROFILE_", "KIND"),
    _spell("from_", "profile"),
    _spell("use_observed", "_concurrency"),
    _spell("expected_hit", "_ratio"),
    _spell("hash_", "joins"),
    _spell("per_destination", "_limits"),
    _spell("effective_", "concurrency"),
    _spell("reqsync_", "fanout"),
    _spell(r"serve\.", "(re", "calibrate|calibration)"),
    _spell("--", "calibration"),
    _spell("Cache", "Policy"),
    _spell("Cached", "Failure"),
    _spell("Cache", "Lookup"),
    _spell("put_", "failure"),
    _spell("max_", "staleness"),
    _spell("negative", "_ttl"),
    _spell("ttl_by", "_kind"),
    _spell(r"cache\.", "stale"),
    _spell("CACHE_", "STALE"),
    _spell("stale", "_hits"),
    _spell("half_open_max", "_calls"),
    _spell(r"\brecovery", r"_timeout\b"),
    _spell("apply_asynchronous", "_iteration"),
    _spell("filled", "_columns"),
    _spell("payload", "_key"),
    _spell("_expr", "_key"),
    _spell("grandparent", "_of"),
    _spell(r"\blift", r"\("),
    _spell("Decorrelate", "InToJoin"),
    _spell("SplitDisjunction", "ToUnion"),
    _spell("DeriveJoin", "Constraint"),
    _spell("DropDistinct", "OverAggregate"),
    _spell("Compose", "Projections"),
    _spell("RemoveIdentity", "Project"),
    _spell("RELATIONAL_", "PIPELINE"),
    _spell(r"\b_cheap", r"er\b"),
    _spell("Logical", "Union"),
    _spell("Union", "All"),
    _spell("BOTTOM", "_UP"),
    _spell("default", "_pump"),
    _spell("_DEFAULT", "_PUMP"),
    _spell("_DEFAULT", "_LOCK"),
    _spell("run", "_blocking"),
    _spell("ensure", "_started"),
    _spell("WriteAhead", "Log"),
    _spell("recover_", "database"),
    _spell("recovered_", "operations"),
    _spell("no[_-]", "steal"),
    _spell("[Dd]ura", "bility"),
    _spell("update", "_where"),
    _spell("_install", "_journal"),
    _spell(r"\.jour", r"nal\b"),
    _spell("_start", "_wal"),
    _spell(r"\bwal", r"\.(py|log)\b"),
    _spell(r"(def |\.)check", r"point\("),
    _spell("grow", "ths"),
    _spell("state_by", "_name"),
    _spell(r"\bwith_", r"schema\b"),
    _spell(r"\bindexes", r"_of\b"),
    _spell("default", "_clock"),
    _spell("term_", "postings"),
    _spell(r"\bindex", r"_on\b"),
    _spell(r"\btime", r"_call\b"),
    _spell("Stop", "watch"),
    _spell("final", "_outcome"),
    _spell(r"\bhot", r"test\b"),
    _spell(r"\btotal", r"_seconds\b"),
    _spell(r"\brefine", r"\("),
    _spell("Refine", "ment"),
    _spell(r"\brelated", r"\("),
    _spell(r"\braise", r"_if_expired\b"),
    _spell("(counters|gauges|histograms)", "_named"),
    _spell("resident", "_pages"),
    _spell(r"\bqualified", r"_names\b"),
    _spell(r"\btotal", r"_tokens\b"),
    _spell("term", "_frequency"),
    _spell(r"\bhas_", r"(or|exclusions)\b"),
    _spell(r"\bas", r"_dicts\b"),
    _spell("Rule", "Engine"),
    _spell("Rule", "Context"),
    _spell(r"\bclass (\w+\()?", r"Rule\b"),
    _spell("_ReqSync", "Rule"),
    _spell("REQSYNC", "_PACK"),
    _spell("(?i:fire", "_budget)"),
    _spell(r"\bplan(\.|/| import )", r"rules\b"),
    _spell("Percolate", "Above"),
    _spell(r"\bInsertReq", r"Sync\b"),
    _spell("ConsolidateReq", "Syncs"),
    _spell("HoistClashing", "Selection"),
    _spell("JoinToSelection", "OverCrossProduct"),
    _spell("faults", "_seen"),
    _spell(r"(def |\.)observ", r"ability\("),
    _spell(r"(def |Deadline\.)", r"after\("),
    _spell(r"\bOP_", r"NEXT\b"),
    _spell(r"['\"]op\.", r"next['\"]"),
    _spell("register", "_batch"),
    _spell("batches", "_bound"),
    _spell("LogicalRows", "Scan"),
    _spell(r"\bdeadline", r"_expired\b"),
    _spell(r"\b_sp", r"ent\("),
    _spell(r"(\.|def )bud", r"get\("),
    _spell("IDLE", "_LINGER"),
    _spell(r"\b_tu", r"rn\b"),
    _spell(r"\b_sto", r"ps\b"),
    _spell("hand", "off"),
    _spell("Cost", "Model"),
    _spell("recali", "brat"),
    _spell("Calibration", "Profile"),
    _spell("annotated", "_explain"),
    _spell("choose_figure7", "_variant"),
    _spell("apply", "_profile"),
    _spell("Slotted", "Page"),
    _spell("read_", "directory"),
    _spell("max_record", "_size"),
    _spell("(en|de)code", "_record"),
    _spell("_find_free", "_slot"),
    _spell(r"(def |\.)vac", r"uum\("),
    _spell("_ensure", "_workers"),
    _spell("_worker", "_loop"),
    _spell("next", "_ready"),
    _spell("_reaper", "_loop"),
    _spell("REAP_", "INTERVAL"),
    _spell("reap", "_expired"),
    _spell("drain", "_where"),
    _spell("serve-", "(worker|reaper)"),
    _spell("Profile", "Report"),
    _spell("profile", "_plan"),
    _spell("_Profiled", "Operator"),
    _spell("_rewire", "_children"),
    _spell("_sum_plan", "_attr"),
    _spell("_Aggregate", "Rebinder"),
    _spell(r"\bON_ERROR_", r"(RAISE|DROP|NULL)\b"),
]

#: Where they may not appear (EXPERIMENTS.md, CHANGES.md and ROADMAP.md
#: keep the history, including the measurement that removed the path).
GUARDED = ["src", "tests", "benchmarks", "examples", ".github",
           "README.md", "API.md", "DESIGN.md"]
TEXT_SUFFIXES = {".py", ".md", ".yml", ".yaml", ".txt", ".json", ".toml", ".cfg"}


def guarded_files():
    for entry in GUARDED:
        path = ROOT / entry
        if path.is_file():
            yield path
            continue
        for found in sorted(path.rglob("*")):
            if (
                found.is_file()
                and found.suffix in TEXT_SUFFIXES
                and "__pycache__" not in found.parts
                and "results" not in found.parts
            ):
                yield found


def environment_reads(source):
    """Line numbers where *source* touches the process environment."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "environb", "getenv", "putenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(a.name in ("environ", "environb", "getenv") for a in node.names)
        ):
            lines.append(node.lineno)
    return lines


class TestStructuralGuard:
    def test_one_module_reads_the_environment(self):
        readers = {
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if environment_reads(path.read_text())
        }
        assert readers == {"config.py"}

    @pytest.mark.parametrize(
        "mutant",
        [
            "import os\nsize = os.environ.get('REPRO_BATCH_SIZE')\n",
            "import os\nsize = os.getenv('REPRO_BATCH_SIZE')\n",
            "from os import environ\n",
            "from os import getenv as env\n",
        ],
    )
    def test_guard_catches_an_environment_read(self, mutant):
        assert environment_reads(mutant)
        assert not environment_reads("import os\npath = os.path.join('a', 'b')\n")

    @pytest.mark.parametrize(
        "mutant",
        [
            _spell("    pull_above_", "order_sensitive: bool = False"),
            _spell("        self.preserve_", "order = True"),
            _spell("        if self.options.cost_", "reorder:"),
            _spell("class PullAbove", "SortOrdered(_ReqSync", "Rule):"),
            _spell('    name = "reqsync.pull_above', '_sort"'),
            _spell("        relations = self._order_", "relations(query, relations)"),
            _spell("                self._insert_", "after(original_tid, tid)"),
            _spell("        slo_", "seconds=None,"),
            _spell("        slo_", "target=0.99,"),
            _spell("        return cap is None or state.active < state.policy.max_", "active"),
            _spell("        default_", "timeout=None,"),
            _spell('SLO_MET = "serve.', 'slo.met"'),
            _spell("from repro.serve import render_slo", "_report"),
            _spell("        view = slo_counters", "_view(engine.metrics)"),
            _spell("        _trace.SERVE_SLO", "_VIOLATION,"),
            _spell("    def observe_service", "_time(self, seconds):"),
            _spell("from repro.web.shard", "client import ", "Sharded", "SearchClient"),
            _spell("class Sharded", "SearchEngine:"),
            _spell("                sharded", "_view(engine, self.config.shards),"),
            _spell("    def shard", "_stats(self):"),
            _spell("    def scatter", "_latency(self, destination):"),
            _spell('    "shards": "REPRO_', 'SHARDS",'),
            _spell('        "--', 'shards",'),
            _spell('SHARD_SCATTER = "shard.', 'scatter"'),
            _spell('SHARD_GATHER = "shard.', 'gather"'),
            _spell('SHARD_OUTAGE = "shard.', 'outage"'),
            _spell("class Calibration", "Policy:"),
            _spell("    def maybe_", "recal", "ibrate(self, force=False):"),
            _spell("def validate_", "profile(payload):"),
            _spell("def assert_valid", "_profile(payload):"),
            _spell('PROFILE_', 'KIND = "repro.calibration_profile"'),
            _spell("    def from_", "profile(cls, profile, latency_mean=0.05):"),
            _spell("    def apply", "_profile(self, profile, use_observed", "_concurrency=False):"),
            _spell("        expected_hit", "_ratio=None,"),
            _spell("        hash_", "joins=False,"),
            _spell("        per_destination", "_limits=None,"),
            _spell("    def effective_", "concurrency(self, destination):"),
            _spell("        self.reqsync_", "fanout = reqsync_", "fanout"),
            _spell('            metrics.inc("serve.', 'recal', 'ibrate.applied")'),
            _spell('            metrics.gauge("serve.', 'calibration.samples")'),
            _spell('        "--', 'calibration",'),
            _spell("from repro.web.cache import Cache", "Policy, ResultCache"),
            _spell("class Cached", "FailureError(WebRequestError):"),
            _spell("        return Cache", "Lookup(status, entry.value)"),
            _spell("                    self.cache.put_", "failure(key, exc)"),
            _spell("    max_", "staleness=0.0,"),
            _spell("    negative", "_ttl=None,"),
            _spell("        self.ttl_by", "_kind = dict(ttl_by", "_kind or {})"),
            _spell('_COUNTERS = ("cache.hit", "cache.miss", "cache.', 'stale")'),
            _spell('CACHE_', 'STALE = "cache.', 'stale"'),
            _spell('            "stale', '_hits": self._stale.value,'),
            _spell("        half_open_max", "_calls=1,"),
            _spell("        recovery", "_timeout=1.0,"),
            _spell("from repro.asynciter.rewrite import apply_asynchronous", "_iteration"),
            _spell("def filled", "_columns(op):"),
            _spell("    def payload", "_key(self):"),
            _spell("        return _expr", "_key(self.predicate)"),
            _spell("    def grandparent", "_of(self, node):"),
            _spell("                lifted = L.lift", "(term.subplan)"),
            _spell("class Decorrelate", "InToJoin(Rule):"),
            _spell("class SplitDisjunction", "ToUnion(Rule):"),
            _spell("class DeriveJoin", "Constraint(Rule):"),
            _spell("class DropDistinct", "OverAggregate(Rule):"),
            _spell("class Compose", "Projections(Rule):"),
            _spell("class RemoveIdentity", "Project(Rule):"),
            _spell("from repro.plan.", "rules import RELATIONAL_", "PIPELINE, Rule", "Engine"),
            _spell("        if not _cheap", "er(ctx, node, candidate):"),
            _spell("            union = L.Logical", "Union(union, branch)"),
            _spell("from repro.exec.union import Union", "All"),
            _spell('BOTTOM', '_UP = "bottom_up"'),
            _spell("                pump = default", "_pump()"),
            _spell("_DEFAULT", "_PUMP = None"),
            _spell("_DEFAULT", "_LOCK = threading.Lock()"),
            _spell("    _, rows, error = AsyncContext(default", "_pump(), dedup=False).run(call)"),
            _spell("from repro.web.client import run", "_blocking"),
            _spell("        self.ensure", "_started()"),
            _spell("from repro.storage.wal import WriteAhead", "Log, recover_", "database"),
            _spell("        self.recovered_", "operations = 0"),
            _spell("    def __init__(self, disk, capacity=64, no_", "steal=False):"),
            _spell('    def __init__(self, directory=None, buffer_capacity=64, dura', 'bility="none"):'),
            _spell("    def update", "_where(self, predicate, updater):"),
            _spell("            self._install", "_journal(table)"),
            _spell("        self.jour", "nal = None"),
            _spell("            self._start", "_wal()"),
            _spell('        path = os.path.join(self.directory, "wal', '.log")'),
            _spell("    def check", "point(self):"),
            _spell("            self.grow", "ths += 1"),
            _spell("def state_by", "_name(name):"),
            _spell("    def with_", "schema(self, schema):"),
            _spell("    def indexes", "_of(self, table):"),
            _spell("def default", "_clock():"),
            _spell("    def term_", "postings(self, term):"),
            _spell("    def index", "_on(self, column_name):"),
            _spell("def time", "_call(fn, *args, **kwargs):"),
            _spell("class Stop", "watch:"),
            _spell("    def final", "_outcome(self, engine_name, expr_text, max_attempts):"),
            _spell("    def hot", "test(self):"),
            _spell("    def total", "_seconds(self):"),
            _spell("    def refine", "(self, phrase, top_k=5):"),
            _spell("class Refine", "ment:"),
            _spell("    def related", "(self, term, exclude_self=True):"),
            _spell('    def raise', '_if_expired(self, what="query"):'),
            _spell("    def counters", "_named(self, name):"),
            _spell("    def gauges", "_named(self, name):"),
            _spell("    def resident", "_pages(self):"),
            _spell("    def qualified", "_names(self):"),
            _spell("    def total", "_tokens(self):"),
            _spell("    def term", "_frequency(self, doc_id, term):"),
            _spell("    def has", "_or(self):"),
            _spell("    def has", "_exclusions(self):"),
            _spell("    def as", "_dicts(self):"),
            _spell("from repro.plan.", "rules import REQSYNC", "_PACK, Rule", "Engine"),
            _spell("from repro.plan import ", "rules as R"),
            _spell("class ", "Rule", "Context:"),
            _spell("class ", "Rule:"),
            _spell("class InsertReq", "Sync(Rule):"),
            _spell("class ConsolidateReq", "Syncs(Rule):"),
            _spell("class Percolate", "AboveFilter(_ReqSync", "Rule):"),
            _spell("class HoistClashing", "Selection(_ReqSync", "Rule):"),
            _spell("class JoinToSelection", "OverCrossProduct(_ReqSync", "Rule):"),
            _spell("        fire", "_budget=DEFAULT_FIRE", "_BUDGET,"),
            _spell("DEFAULT_FIRE", "_BUDGET = 1000"),
            _spell("REQSYNC", "_PACK = ("),
            _spell("        self.faults", "_seen += 1"),
            _spell("    def observ", "ability(self):"),
            _spell("    def after", "(cls, seconds, clock=None):"),
            _spell("OP_", 'NEXT = "op.', 'next"'),
            _spell("        _trace.OP_", "NEXT,"),
            _spell("    def register", "_batch(self, calls, on_complete, query_id=None,"),
            _spell("            call_ids = self.context.register", "_batch(calls)"),
            _spell("        self.batches", "_bound = 0"),
            _spell("class LogicalRows", "Scan(LogicalNode):"),
            _spell("    if isinstance(node, L.LogicalRows", "Scan):"),
            _spell('    "deadline', '_expired",'),
            _spell('        error = self._sp', 'ent(anchor, "issue")'),
            _spell("        timeout = anchor.deadline.bud", "get(cap)"),
            _spell("    def bud", "get(self, cap=None):"),
            _spell("from repro.plan.cost import Cost", "Model"),
            _spell("    def recali", "brate(self):"),
            _spell("        profile = Calibration", "Profile.from_sources("),
            _spell("    def annotated", "_explain(self, plan):"),
            _spell("def choose_figure7", "_variant(cost_model, sigs_rows, r_rows):"),
            _spell("        self.cost_model.apply", "_profile(profile)"),
            _spell("    def histograms", "_named(self, name):"),
            _spell("class Slotted", "Page:"),
            _spell("    return struct.unpack_from(fmt, data, read_", "directory.size)"),
            _spell("        self.limit = max_record", "_size(heap.pool.disk.page_size)"),
            _spell("        return de", "code_record(record, self.schema)"),
            _spell("                rid = append(en", "code_record(row, self.schema))"),
            _spell("        slot = self._find_free", "_slot()"),
            _spell("        table.heap.vac", "uum()"),
            _spell("            item = admission.next", "_ready(timeout=0.05)"),
            _spell("            time.sleep(REAP_", "INTERVAL)"),
            _spell('                name="wsq-serve-', 'reaper",'),
            _spell("        return Profile", "Report(sql, mode, result, stats, deltas)"),
            _spell("            wrapped, stats = profile", "_plan(plan, clock=self.clock)"),
            _spell("class _Profiled", "Operator(Operator):"),
            _spell("    _rewire", "_children(plan, wrapped_children)"),
            _spell('        call_errors = _sum_plan', '_attr(wrapped, "call_errors")'),
            _spell("class _Aggregate", "Rebinder:"),
            _spell("        if self.on_error == ON_ERROR_", "DROP:"),
        ],
    )
    def test_retired_guard_catches_a_revived_name(self, mutant):
        assert re.search("|".join(RETIRED), mutant)

    def test_serve_keeps_the_parameters_its_callers_pass(self):
        def parameters(fn):
            return list(inspect.signature(fn).parameters)

        assert parameters(TenantPolicy) == ["name", "weight", "max_queued"]
        assert parameters(QueryService) == [
            "engine", "tenants", "max_workers", "max_queued",
        ]
        assert parameters(QueryService.submit) == [
            "self", "sql", "tenant", "timeout", "mode",
        ]
        assert "Session" not in repro.serve.__all__

    def test_external_call_path_keeps_the_parameters_its_callers_pass(self):
        def parameters(fn):
            return list(inspect.signature(fn).parameters)

        assert parameters(ResultCache) == [
            "capacity", "ttl", "clock", "metrics", "tracer", "path",
        ]
        assert parameters(make_cache) == ["tier", "capacity", "ttl", "disk_path", "clock"]
        assert parameters(RetryPolicy) == ["max_attempts", "base_backoff"]
        assert parameters(CircuitBreakerConfig) == ["failure_threshold"]
        assert "resilience" not in parameters(SearchClient)

    def test_retired_names_are_gone(self):
        pattern = re.compile("|".join(RETIRED))
        found = []
        for path in guarded_files():
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.search(line):
                    found.append(
                        "{}:{}: {}".format(path.relative_to(ROOT), number, line.strip())
                    )
        assert found == []

    def test_ci_sets_only_variables_the_config_reads(self):
        """A renamed or deleted variable must not turn a transparency leg
        into a second default leg without anyone noticing."""
        workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        named = set(re.findall(r"\bREPRO_\w+", workflow))
        assert {"REPRO_BATCH_SIZE", "REPRO_CACHE"} <= named
        assert named <= set(ENV_VARIABLES)

    def test_engine_keeps_only_the_adapter_views(self):
        """``planner_options``/``rewrite_settings``/``exec_options`` and
        ``dedup_calls`` exist for the frozen benchmark adapter and nothing
        else uses them."""
        views = re.compile(
            r"\b(planner_options|rewrite_settings|exec_options|dedup_calls)\b"
        )
        users = set()
        for path in guarded_files():
            relative = path.relative_to(ROOT)
            if relative.suffix == ".py" and views.search(path.read_text()):
                users.add(str(relative))
        assert users == {"src/repro/wsq/engine.py", "tests/test_config.py"}
