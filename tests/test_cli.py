"""The interactive shell's non-interactive surface."""

import io
import json
import os
import re

import pytest

import repro.cli
from repro.asynciter.resilience import CircuitBreakerConfig
from repro.cli import HELP, _dot_command, _run_statement, build_engine, main
from repro.datasets import MOVIES, load_all
from repro.relational.types import DataType
from repro.storage import Database
from repro.storage.page import FORMAT


class _Args:
    db = None
    load_datasets = True
    latency = 0.0
    cache_tier = None
    sync = False
    command = None


class TestBuildEngine:
    def test_loads_datasets(self):
        engine = build_engine(_Args())
        assert engine.database.has_table("States")
        assert engine.database.has_table("Sigs")

    def test_latency_configured(self):
        args = _Args()
        args.latency = 40.0
        engine = build_engine(args)
        assert engine.latency is not None
        delay = engine.latency.delay("AV", "x")
        assert 0.02 <= delay <= 0.06

    def test_cache_flag(self):
        args = _Args()
        args.cache_tier = "memory"
        assert build_engine(args).cache is not None

    def test_cache_tier_off_overrides_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "memory")
        assert build_engine(_Args()).cache is not None
        args = _Args()
        args.cache_tier = "off"
        assert build_engine(args).cache is None


class TestPersistentDatabase:
    """``--db DIR`` keeps what ``--load-datasets`` loaded, however the
    shell exits, so the next shell over DIR reads the same rows."""

    COUNT = "Select Count(*) From States;"

    @staticmethod
    def stored_rows(directory):
        with Database(directory) as db:
            return {name: db.table(name).row_count() for name in db.table_names()}

    @staticmethod
    def printed_count(out):
        # The one-cell table: a rule, the header, a rule, the value.
        return int(out.splitlines()[3])

    def test_a_second_run_reads_the_rows_the_first_loaded(self, tmp_path, capsys):
        directory = str(tmp_path / "db")
        argv = ["--db", directory, "--load-datasets", "-c", self.COUNT]
        assert main(argv) == 0
        assert self.printed_count(capsys.readouterr().out) == 50
        assert main(argv) == 0
        assert self.printed_count(capsys.readouterr().out) == 50
        loaded = load_all(Database())
        assert self.stored_rows(directory) == {
            name: loaded.table(name).row_count() for name in loaded.table_names()
        }

    @pytest.mark.parametrize("script", [".quit\n", ""])
    def test_the_shell_keeps_them_on_quit_and_eof(self, tmp_path, monkeypatch, script):
        directory = str(tmp_path / "db")
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["--db", directory, "--load-datasets"]) == 0
        assert self.stored_rows(directory)["States"] == 50

    def test_a_directory_of_another_page_format_is_an_error(self, tmp_path, capsys):
        directory = str(tmp_path / "db")
        assert main(["--db", directory, "--load-datasets", "-c", self.COUNT]) == 0
        capsys.readouterr()
        catalog = os.path.join(directory, "catalog.json")
        with open(catalog, encoding="utf-8") as f:
            payload = json.load(f)
        del payload["page_format"]  # what every slotted-row directory holds
        with open(catalog, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        assert main(["--db", directory, "-c", self.COUNT]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "slotted rows" in captured.err and FORMAT in captured.err

    def test_a_config_error_keeps_them(self, tmp_path, monkeypatch, capsys):
        directory = str(tmp_path / "db")
        monkeypatch.setenv("REPRO_CACHE", "nowhere")
        with pytest.raises(SystemExit):
            main(["--db", directory, "--load-datasets", "-c", self.COUNT])
        assert "REPRO_CACHE" in capsys.readouterr().err
        assert self.stored_rows(directory)["States"] == 50

    def test_a_table_of_the_users_own_leaves_the_others_to_load(self, tmp_path, capsys):
        directory = str(tmp_path / "db")
        mine = [("Utopia", 7, "Eden"), ("Atlantis", 0, "Poseidonis")]
        with Database(directory) as db:
            db.create_table_from_rows(
                "States",
                [("Name", DataType.STR), ("Population", DataType.INT), ("Capital", DataType.STR)],
                mine,
            )
        argv = ["--db", directory, "--load-datasets", "-c", "Select Count(*) From Sigs;"]
        assert main(argv) == 0
        assert self.printed_count(capsys.readouterr().out) == 37
        with Database(directory) as db:
            assert sorted(db.table("States").scan()) == sorted(mine)
            assert db.table("Movies").row_count() == len(MOVIES)


UTAH_COUNT = "Select Name, Count From States, WebCount Where Name = T1 and Name = 'Utah';"


def engine_from_flags(monkeypatch, *flags, statement="Select Name From Sigs Limit 1;"):
    """Run ``wsq --load-datasets <flags> -c <statement>``; return the engine it built."""
    built = []
    monkeypatch.setattr(
        repro.cli, "build_engine", lambda args: built.append(build_engine(args)) or built[0]
    )
    assert main(["--load-datasets", *flags, "-c", statement]) == 0
    (engine,) = built
    return engine


class TestCacheAndChaosFlags:
    def test_disk_tier_answers_a_second_shell_from_disk(self, monkeypatch, tmp_path, capsys):
        flags = ("--cache-tier", "disk", "--cache-dir", str(tmp_path))
        first = engine_from_flags(monkeypatch, *flags, statement=UTAH_COUNT)
        cold = capsys.readouterr().out
        assert first.clients["AV"].requests_sent == 1
        second = engine_from_flags(monkeypatch, *flags, statement=UTAH_COUNT)
        warm = capsys.readouterr().out
        assert second.cache.path == str(tmp_path) and second.cache is not first.cache
        assert second.clients["AV"].requests_sent == 0
        assert second.cache.hits == 1
        assert warm.splitlines()[:-1] == cold.splitlines()[:-1]  # all but the timing line

    def test_cache_tier_off_wins_over_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "memory")
        assert engine_from_flags(monkeypatch).cache is not None
        assert engine_from_flags(monkeypatch, "--cache-tier", "off").cache is None

    def test_cache_ttl_reaches_the_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert engine_from_flags(monkeypatch, "--cache-ttl", "30").cache.ttl == 30.0
        memory = engine_from_flags(monkeypatch, "--cache-tier", "memory", "--cache-ttl", "0.5")
        assert memory.cache.ttl == 0.5 and memory.cache.path is None

    @pytest.mark.parametrize("ttl", ["-5", "nan"])
    def test_a_negative_or_nan_cache_ttl_is_a_usage_error(self, ttl, capsys):
        with pytest.raises(SystemExit) as exit:
            main(["--cache-ttl", ttl, "-c", "Select 1;"])
        assert exit.value.code != 0
        assert "--cache-ttl" in capsys.readouterr().err

    def test_chaos_flags_build_the_pump_policy(self, monkeypatch):
        engine = engine_from_flags(
            monkeypatch, "--fault-rate", "0.2", "--retry-attempts", "4", "--call-timeout", "5"
        )
        try:
            policy = engine.pump.resilience
            assert engine.faults.transient_rate == 0.2
            assert policy.retry.max_attempts == 4
            assert policy.call_timeout == 5.0
            assert isinstance(policy.breaker, CircuitBreakerConfig)
        finally:
            engine.pump.shutdown()


class TestRunStatement:
    def test_select_prints_table(self, capsys):
        engine = build_engine(_Args())
        code = _run_statement(engine, "Select Name From Sigs Limit 2;", "sync")
        out = capsys.readouterr().out
        assert code == 0
        assert "SIGACT" in out
        assert "rows in" in out

    def test_error_reported(self, capsys):
        engine = build_engine(_Args())
        code = _run_statement(engine, "Select Nope From States", "sync")
        err = capsys.readouterr().err
        assert code == 1
        assert "unknown column" in err

    def test_syntax_error_diagnostic(self, capsys):
        engine = build_engine(_Args())
        code = _run_statement(engine, "Selec Name From", "sync")
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_empty_statement_noop(self):
        engine = build_engine(_Args())
        assert _run_statement(engine, "   ;", "sync") == 0


class TestDotCommands:
    def test_tables(self, capsys):
        engine = build_engine(_Args())
        mode = _dot_command(engine, ".tables", "async")
        assert mode == "async"
        assert "States" in capsys.readouterr().out

    def test_mode_switch(self, capsys):
        engine = build_engine(_Args())
        assert _dot_command(engine, ".mode sync", "async") == "sync"

    def test_mode_invalid_keeps_current(self, capsys):
        engine = build_engine(_Args())
        assert _dot_command(engine, ".mode warp", "async") == "async"

    def test_explain(self, capsys):
        engine = build_engine(_Args())
        _dot_command(
            engine,
            ".explain Select Name, Count From States, WebCount Where Name = T1",
            "async",
        )
        assert "ReqSync" in capsys.readouterr().out

    def test_explain_error(self, capsys):
        engine = build_engine(_Args())
        _dot_command(engine, ".explain Select bogus", "async")
        assert "error" in capsys.readouterr().err

    def test_explain_form_rules(self, capsys):
        engine = build_engine(_Args())
        _dot_command(
            engine,
            ".explain rules Select Name, Count From States, WebCount "
            "Where Name = T1",
            "async",
        )
        out = capsys.readouterr().out
        assert "reqsync.insert" in out
        assert "nodes" in out

    def test_explain_form_logical(self, capsys):
        engine = build_engine(_Args())
        _dot_command(
            engine,
            ".explain logical Select Name, Count From States, WebCount "
            "Where Name = T1",
            "async",
        )
        out = capsys.readouterr().out
        assert "VTableScan" in out
        assert "ReqSync" not in out  # pre-rules form

    def test_explain_form_alone_prints_usage(self, capsys):
        engine = build_engine(_Args())
        _dot_command(engine, ".explain rules", "async")
        assert "usage:" in capsys.readouterr().out

    def test_stats(self, capsys):
        engine = build_engine(_Args())
        _dot_command(engine, ".stats", "async")
        assert "pump" in capsys.readouterr().out

    def test_help(self, capsys):
        engine = build_engine(_Args())
        _dot_command(engine, ".help", "async")
        assert ".explain" in capsys.readouterr().out

    def test_quit_returns_none(self, capsys):
        engine = build_engine(_Args())
        assert _dot_command(engine, ".quit", "async") is None

    def test_unknown_command(self, capsys):
        engine = build_engine(_Args())
        _dot_command(engine, ".frobnicate", "async")
        assert "unknown command" in capsys.readouterr().out

    def test_every_listed_command_dispatches(self, capsys):
        listed = re.findall(r"^  (\.[a-z]+)", HELP, re.MULTILINE)
        assert {".help", ".explain", ".quit"} <= set(listed)
        engine = build_engine(_Args())
        for command in listed:
            _dot_command(engine, command, "async")
            assert "unknown command" not in capsys.readouterr().out, command
        _dot_command(engine, ".slo", "async")
        assert "unknown command '.slo'" in capsys.readouterr().out

    def test_profile(self, capsys):
        engine = build_engine(_Args())
        _dot_command(
            engine,
            ".explain analyze Select Name, Count From States, WebCount Where Name = T1;",
            "async",
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["operator", "rows", "pulls", "cum(s)", "self(s)"]
        assert any(line.startswith("external: ") for line in lines)


class TestMain:
    def test_single_command_flag(self, capsys):
        code = main(["--load-datasets", "-c", "Select Name From Sigs Limit 1"])
        assert code == 0
        assert "SIGACT" in capsys.readouterr().out

    def test_single_command_error_exit(self, capsys):
        code = main(["--load-datasets", "-c", "Select X From Nowhere"])
        assert code == 1


class TestReplSubprocess:
    """Drive the actual REPL loop through a pipe."""

    def _run(self, script, *args):
        import subprocess
        import sys

        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "--load-datasets", *args],
            input=script,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_query_and_quit(self):
        proc = self._run(
            "Select Name From Sigs Where Name Like 'SIGM%' Order By Name;\n.quit\n"
        )
        assert proc.returncode == 0
        assert "SIGMOD" in proc.stdout
        assert "SIGMETRICS" in proc.stdout

    def test_multiline_statement(self):
        proc = self._run(
            "Select Name, Count From Sigs, WebCount\n"
            "Where Name = T1 and T2 = 'Knuth' Order By Count Desc Limit 1;\n"
            ".quit\n"
        )
        assert proc.returncode == 0
        assert "SIGACT" in proc.stdout

    def test_dot_commands_flow(self):
        proc = self._run(".tables\n.mode sync\n.stats\n.help\n.quit\n")
        assert proc.returncode == 0
        assert "States" in proc.stdout
        assert "mode: sync" in proc.stdout

    def test_error_then_continue(self):
        proc = self._run("Select Nope From States;\nSelect Count(*) From States;\n.quit\n")
        assert proc.returncode == 0
        assert "unknown column" in proc.stderr
        assert "50" in proc.stdout

    def test_eof_exits_cleanly(self):
        proc = self._run("")
        assert proc.returncode == 0


class TestObservabilityCommands:
    def test_metrics_prom_argument(self, capsys):
        engine = build_engine(_Args())
        _run_statement(
            engine, "Select Name From Sigs Limit 1", "sync"
        )
        capsys.readouterr()
        _dot_command(engine, ".metrics --prom", "async")
        out = capsys.readouterr().out
        # Prometheus text exposition, not JSON.
        assert "# TYPE" in out
        assert "{" not in out.splitlines()[0] or "=" in out

    def test_metrics_default_stays_json(self, capsys):
        engine = build_engine(_Args())
        _dot_command(engine, ".metrics", "async")
        out = capsys.readouterr().out
        assert out.lstrip().startswith("{")

    def test_help_lists_new_commands(self, capsys):
        engine = build_engine(_Args())
        _dot_command(engine, ".help", "async")
        out = capsys.readouterr().out
        assert "--prom" in out
