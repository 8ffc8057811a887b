"""The interactive shell's non-interactive surface."""

from repro.cli import _dot_command, _run_statement, build_engine, main


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

    def test_explain_form_costs(self, capsys):
        engine = build_engine(_Args())
        _dot_command(
            engine,
            ".explain costs Select Name, Count From States, WebCount "
            "Where Name = T1",
            "async",
        )
        assert "rows~" in capsys.readouterr().out

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

    def test_slo_without_activity(self, capsys):
        engine = build_engine(_Args())
        _dot_command(engine, ".slo", "async")
        assert "no SLO activity" in capsys.readouterr().out

    def test_slo_renders_counters(self, capsys):
        engine = build_engine(_Args())
        engine.metrics.inc("serve.slo.met", tenant="gold")
        engine.metrics.inc("serve.slo.violated", tenant="gold")
        engine.metrics.gauge("serve.slo.burn", tenant="gold").set(5.0)
        _dot_command(engine, ".slo", "async")
        out = capsys.readouterr().out
        assert "gold: met 1/2 (50.0%)  burn 5.00x" in out

    def test_recalibrate_command(self, capsys):
        engine = build_engine(_Args())
        _dot_command(engine, ".recalibrate", "async")
        out = capsys.readouterr().out
        assert "calibration applied" in out
        assert engine.cost_model is not None
        assert engine.cost_model.calibrated

    def test_calibration_flag_loads_profile(self, tmp_path):
        from repro.obs import CalibrationProfile, DestinationCalibration

        path = tmp_path / "profile.json"
        CalibrationProfile(
            destinations={
                "AV": DestinationCalibration(
                    "AV", samples=40, latency_mean=0.25
                )
            },
            samples=40,
        ).save(str(path))
        args = _Args()
        args.calibration = str(path)
        engine = build_engine(args)
        assert engine.cost_model.calibrated
        assert engine.cost_model.destination_latency("AV") == 0.25

    def test_help_lists_new_commands(self, capsys):
        engine = build_engine(_Args())
        _dot_command(engine, ".help", "async")
        out = capsys.readouterr().out
        assert ".slo" in out
        assert ".recalibrate" in out
        assert "--prom" in out
