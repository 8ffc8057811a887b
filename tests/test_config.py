"""One ``EngineConfig``, resolved once.

Every engine knob is a field of :class:`repro.config.EngineConfig`;
``EngineConfig.resolve`` applies *explicit > environment > default* and
validates at construction; and the planner, the ReqSync rewrite and
lowering receive the same immutable object.  The environment is injected
as a plain dict throughout — no test here touches ``os.environ``.
"""

import ast
import dataclasses
import pathlib
import re

import pytest

from repro.asynciter.pump import PumpLimits, RequestPump
from repro.asynciter.reqsync import ReqSync
from repro.asynciter.resilience import ResiliencePolicy, RetryPolicy
from repro.config import ENV_VARIABLES, FIELD_ENV, EngineConfig, default_cache
from repro.obs import Observability
from repro.serve import Deadline
from repro.util.errors import ConfigError, PlanError, ReproError
from repro.vtables.evscan import EVScan
from repro.web.cache import ResultCache, make_cache
from repro.wsq import WsqEngine

SQL = "Select Name, Count From States, WebCount Where Name = T1"
SQL_TWO_VTABLES = (
    "Select Name, Count, URL From States, WebCount, WebPages "
    "Where Name = WebCount.T1 and Name = WebPages.T1 and Rank <= 2"
)

#: field -> (default, an explicit non-default value)
FIELDS = {
    "on_error": ("raise", "null"),
    "batch_size": (256, 3),
    "shards": (1, 2),
    "wait_timeout": (60.0, 1.5),
    "stream": (False, True),
    "pull_above_order_sensitive": (False, True),
    "consolidate": (True, False),
    "reorder": (False, True),
    "cost_reorder": (False, True),
    "dedup_calls": (True, False),
    "single_flight": (None, False),
}

#: field -> (raw environment text, the value it resolves to)
ENV_VALUES = {
    "batch_size": ("7", 7),
    "shards": (" 4 ", 4),
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
    def test_fields_are_exactly_the_documented_eleven(self):
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
        base = EngineConfig(shards=2)
        changed = base.override(on_error="drop", batch_size=None)
        assert (changed.shards, changed.on_error) == (2, "drop")
        assert changed.batch_size == base.batch_size
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
            ("shards", 0),
            ("shards", -3),
            ("wait_timeout", 0),
            ("wait_timeout", "soon"),
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
            ("REPRO_SHARDS", "x"),
            ("REPRO_SHARDS", "-1"),
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
        # The optimizer pipeline and access-path selection have no switch.
        for name in ("rules", _spell("use_", "indexes")):
            with pytest.raises(ConfigError, match=name):
                EngineConfig.resolve(environ={}, **{name: ()})
            with pytest.raises(ConfigError, match=name):
                WsqEngine(**{name: ()})
        environ = {_spell("REPRO_", "RULES"): "all"}
        assert EngineConfig.resolve(environ=environ) == EngineConfig()


class TestDefaultCache:
    @pytest.mark.parametrize("spec", ["", "off", "none", "0", " OFF "])
    def test_off(self, spec):
        assert default_cache({"REPRO_CACHE": spec}) is None
        assert default_cache({}) is None

    def test_tiers_and_ttl(self):
        assert type(default_cache({"REPRO_CACHE": "memory"})) is ResultCache
        memory = default_cache({"REPRO_CACHE": "Memory", "REPRO_CACHE_TTL": "2.5"})
        assert type(memory) is ResultCache
        assert memory.policy.default_ttl == 2.5

    def test_invalid_values_name_their_variable(self):
        with pytest.raises(ConfigError, match=r"\$REPRO_CACHE\b.*off/memory/disk"):
            default_cache({"REPRO_CACHE": "floppy"})
        with pytest.raises(ConfigError, match="off/memory/disk"):
            default_cache({"REPRO_CACHE": "tiered"})
        with pytest.raises(ConfigError, match=r"\$REPRO_CACHE_TTL"):
            default_cache({"REPRO_CACHE": "memory", "REPRO_CACHE_TTL": "soon"})

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
        with pytest.raises(ConfigError, match="shards"):
            WsqEngine(database=paper_db, web=web, shards=0)
        with pytest.raises(ConfigError, match="workers"):
            WsqEngine(database=paper_db, web=web, workers=2)

    def test_keywords_override_the_given_config(self, web, paper_db):
        config = EngineConfig(on_error="drop", batch_size=9)
        engine = WsqEngine(database=paper_db, web=web, config=config, batch_size=4)
        assert (engine.config.on_error, engine.config.batch_size) == ("drop", 4)
        assert config.batch_size == 9
        assert WsqEngine(database=paper_db, web=web, config=config).config is config

    def test_every_layer_receives_the_same_object(self, web, paper_db):
        engine = WsqEngine(database=paper_db, web=web, shards=1)
        assert engine._planner.options is engine.config
        assert engine.batch_size == engine.config.batch_size
        assert engine.dedup_calls is engine.config.dedup_calls

    def test_a_given_pump_is_used_as_built(self, web, paper_db):
        pump = RequestPump(PumpLimits(), name="given")
        try:
            engine = WsqEngine(
                database=paper_db,
                web=web,
                pump=pump,
                obs=Observability.enabled(),
                resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=2)),
                single_flight=True,
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
                shards=1,
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

    def test_wait_timeout_reaches_reqsync(self, web, paper_db):
        engine = WsqEngine(database=paper_db, web=web, wait_timeout=0.75)
        plan = engine.plan(SQL, mode="async")
        assert {r.wait_timeout for r in _only(plan, ReqSync)} == {0.75}

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
        engine = WsqEngine(database=paper_db, web=web, consolidate=False)
        executed = []
        drain = engine._drain_batches

        def watched(plan):
            executed.append([r.context for r in _only(plan, ReqSync)])
            return drain(plan)

        monkeypatch.setattr(engine, "_drain_batches", watched)
        deadline = Deadline(30.0)
        engine.execute(SQL_TWO_VTABLES, deadline=deadline)
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


#: The structs, env parsers and the intra-query worker-thread path this
#: file's config replaced, then the optimizer's pack knob chain, the
#: index switch, the result-cache tier classes and the client's copy of
#: the cache-hit signal (``web.cache_hit_fraction``, a benchmark metric,
#: does not match); none may come back in code, CI or the docs.
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
        assert {"REPRO_BATCH_SIZE", "REPRO_CACHE", "REPRO_SHARDS"} <= named
        assert named <= set(ENV_VARIABLES)

    def test_engine_keeps_only_the_adapter_views(self):
        """``planner_options``/``rewrite_settings``/``exec_options`` exist
        for the frozen benchmark adapter and nothing else uses them."""
        views = re.compile(r"\b(planner_options|rewrite_settings|exec_options)\b")
        users = set()
        for path in guarded_files():
            relative = path.relative_to(ROOT)
            if relative.suffix == ".py" and views.search(path.read_text()):
                users.add(str(relative))
        assert users == {"src/repro/wsq/engine.py", "tests/test_config.py"}
