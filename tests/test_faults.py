"""Chaos acceptance: whole WSQ queries under a seeded fault schedule.

The issue's acceptance scenario: a multi-binding WSQ query under a
seeded transient-fault schedule (plus an engine outage) must

- complete under ``on_error="drop"`` and ``"null"`` with *deterministic*
  row counts predicted straight from the :class:`FaultModel`,
- abort with an :class:`ExecutionError` under the default ``"raise"``,
- produce *identical* results in synchronous and asynchronous execution
  of the same faulted workload,
- open / half-open / close the per-destination circuit breaker
  observably in the pump statistics, with retries and timeouts counted.
"""

import pytest

from repro.asynciter.resilience import (
    CircuitBreakerConfig,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.bench.workloads import bench_engine
from repro.util.errors import ExecutionError, ReproError
from repro.web.faults import HANG, FaultModel

#: Template-1-style multi-binding query: one WebCount call per state.
QUERY = (
    "Select Name, Count From States, WebCount "
    "Where Name = T1 and WebCount.T2 = 'capital'"
)

#: Same shape against the Google engine (no ``near`` support).
GOOGLE_QUERY = (
    "Select Name, Count From States, WebCount_Google "
    "Where Name = T1 and WebCount_Google.T2 = 'capital'"
)

SEED = 11
RATE = 0.35


def av_expr(name):
    """The search expression WebCount sends to AV for one state."""
    return '"{}" near "{}"'.format(name, "capital")


def google_expr(name):
    return '"{}" "{}"'.format(name, "capital")


def fast_policy(max_attempts=2, call_timeout=None, breaker=None):
    """A retry policy with zero backoff, for fast deterministic tests."""
    return ResiliencePolicy(
        retry=RetryPolicy(max_attempts=max_attempts, base_backoff=0.0, jitter=0.0),
        call_timeout=call_timeout,
        breaker=breaker,
    )


def chaos_engine(faults, resilience, on_error=None, shards=None):
    """*shards=1* pins the tests whose predictions key the fault schedule
    (or a breaker) on the engine destination; the rest run at whatever
    ``REPRO_SHARDS`` says."""
    return bench_engine(
        latency=None,
        faults=faults,
        resilience=resilience,
        on_error=on_error,
        shards=shards,
    )


@pytest.fixture(scope="module")
def state_names():
    engine = bench_engine(latency=None)
    return [
        row[0]
        for row in engine.execute("Select Name From States", mode="sync").rows
    ]


def predicted_survivors(names, seed=SEED, rate=RATE, max_attempts=2):
    """States whose WebCount call eventually succeeds under the schedule."""
    predictor = FaultModel(seed=seed, transient_rate=rate)
    return {
        name
        for name in names
        if predictor.final_outcome("AV", av_expr(name), max_attempts) == "ok"
    }


class TestGracefulDegradation:
    def test_schedule_actually_bites(self, state_names):
        # Sanity for the whole module: this seed fails some states but
        # not all, so drop/null/raise genuinely diverge.
        survivors = predicted_survivors(state_names)
        assert 0 < len(survivors) < len(state_names)

    def test_drop_completes_with_predicted_rows(self, state_names):
        engine = chaos_engine(
            FaultModel(seed=SEED, transient_rate=RATE),
            fast_policy(max_attempts=2),
            on_error="drop",
            shards=1,
        )
        try:
            result = engine.execute(QUERY, mode="async")
            assert {row[0] for row in result.rows} == predicted_survivors(
                state_names
            )
            # Deterministic: a second run of the same workload agrees.
            again = engine.execute(QUERY, mode="async")
            assert sorted(again.rows) == sorted(result.rows)
        finally:
            engine.pump.shutdown()

    def test_null_completes_with_nulls_in_failed_rows(self, state_names):
        engine = chaos_engine(
            FaultModel(seed=SEED, transient_rate=RATE),
            fast_policy(max_attempts=2),
            on_error="null",
            shards=1,
        )
        try:
            result = engine.execute(QUERY, mode="async")
            # Outer-join-style degradation: every state survives...
            assert len(result.rows) == len(state_names)
            survivors = predicted_survivors(state_names)
            for name, count in result.rows:
                # ... but the failed calls' Count is NULL.
                assert (count is None) == (name not in survivors)
        finally:
            engine.pump.shutdown()

    def test_raise_aborts_the_query(self, state_names):
        engine = chaos_engine(
            FaultModel(seed=SEED, transient_rate=RATE),
            fast_policy(max_attempts=2),
        )
        try:
            assert engine.config.on_error == "raise"
            with pytest.raises(ExecutionError, match="failed"):
                engine.execute(QUERY, mode="async")
            # The sequential path propagates the original web error.
            with pytest.raises(ReproError, match="simulated transient"):
                engine.execute(QUERY, mode="sync")
        finally:
            engine.pump.shutdown()

    def test_retries_reflected_in_stats(self, state_names):
        faults = FaultModel(seed=SEED, transient_rate=RATE)
        engine = chaos_engine(faults, fast_policy(max_attempts=3), on_error="drop")
        try:
            engine.execute(QUERY, mode="async")
            snapshot = engine.pump.stats.snapshot()
            assert snapshot["retries"] > 0
            assert snapshot["per_destination"]["AV"]["retries"] > 0
            payload = engine.stats()
            assert payload["faults"]["transient_injected"] > 0
        finally:
            engine.pump.shutdown()


class TestSyncAsyncEquivalence:
    """The same faulted workload, sequential vs asynchronous iteration."""

    @pytest.mark.parametrize("on_error", ["drop", "null"])
    def test_identical_results(self, on_error):
        runs = {}
        for mode in ("sync", "async"):
            # Fresh FaultModel per run: counters differ, schedule does not.
            engine = chaos_engine(
                FaultModel(seed=SEED, transient_rate=RATE),
                fast_policy(max_attempts=2),
                on_error=on_error,
            )
            try:
                runs[mode] = sorted(
                    engine.execute(QUERY, mode=mode).rows, key=str
                )
            finally:
                engine.pump.shutdown()
        assert runs["sync"] == runs["async"]

    def test_identical_results_with_hangs_and_timeouts(self):
        # Hung requests are cut by the pump's asyncio.wait_for in either
        # mode, so the classification and retry schedule match — also
        # over a sharded engine (deliberately not pinned to shards=1).
        predictor = FaultModel(seed=3, hang_rate=0.1, hang_seconds=5.0)
        hangs = [
            n
            for n in range(50)
            if predictor.peek("AV", av_expr("s"), n) is not None
        ]
        runs = {}
        for mode in ("sync", "async"):
            engine = chaos_engine(
                FaultModel(
                    seed=3, transient_rate=0.2, hang_rate=0.1, hang_seconds=5.0
                ),
                fast_policy(max_attempts=2, call_timeout=0.02),
                on_error="drop",
            )
            try:
                runs[mode] = sorted(
                    engine.execute(QUERY, mode=mode).rows, key=str
                )
            finally:
                engine.pump.shutdown()
        assert runs["sync"] == runs["async"]


class TestOutageAndBreaker:
    def _fake_clock(self):
        class _Clock:
            now = 0.0

            def __call__(self):
                return self.now

        return _Clock()

    def test_breaker_opens_during_outage_and_recovers(self, state_names):
        clock = self._fake_clock()
        faults = FaultModel(seed=0, outages=("Google",))
        resilience = ResiliencePolicy(
            retry=None,  # isolate the breaker behaviour
            breaker=CircuitBreakerConfig(
                failure_threshold=3, recovery_timeout=5.0, clock=clock
            ),
        )
        engine = chaos_engine(faults, resilience, on_error="drop", shards=1)
        try:
            # Every Google call fails fast during the outage; the query
            # still completes (drop policy) with zero rows.
            result = engine.execute(GOOGLE_QUERY, mode="async")
            assert result.rows == []
            snapshot = engine.pump.snapshot()
            breaker = snapshot["breakers"]["Google"]
            assert breaker["state"] == "open"
            assert breaker["opens"] >= 1
            # After the threshold tripped, the rest failed *without* a
            # network round trip.
            assert snapshot["breaker_open_rejections"] > 0
            assert (
                snapshot["per_destination"]["Google"]["breaker_open_rejections"]
                > 0
            )
            assert engine.stats()["faults"]["outage_rejections"] >= 3

            # Outage ends, recovery window passes: the next call is the
            # half-open probe; its success closes the breaker.
            faults.end_outage("Google")
            clock.now += 10.0
            single = (
                "Select Name, Count From States, WebCount_Google "
                "Where Name = T1 and WebCount_Google.T2 = 'capital' "
                "and Name = 'Utah'"
            )
            recovered = engine.execute(single, mode="async")
            assert len(recovered.rows) == 1
            assert recovered.rows[0][1] is not None
            breaker = engine.pump.snapshot()["breakers"]["Google"]
            assert breaker["state"] == "closed"
            assert breaker["half_opens"] >= 1
            assert breaker["closes"] >= 1
        finally:
            engine.pump.shutdown()

    def test_timeouts_counted_under_hangs(self, state_names):
        predictor = FaultModel(seed=2, hang_rate=0.15, hang_seconds=5.0)
        assert any(
            predictor.peek("AV", av_expr(name), 0) is not None
            and predictor.peek("AV", av_expr(name), 0).kind == HANG
            for name in state_names
        )
        engine = chaos_engine(
            FaultModel(seed=2, hang_rate=0.15, hang_seconds=5.0),
            fast_policy(max_attempts=2, call_timeout=0.05),
            on_error="drop",
        )
        try:
            engine.execute(QUERY, mode="async")
            snapshot = engine.pump.stats.snapshot()
            assert snapshot["timeouts"] > 0
        finally:
            engine.pump.shutdown()


class TestSurfacing:
    """Degradation shows up in profile deltas and the CLI."""

    def test_profile_reports_degradation(self, state_names):
        engine = chaos_engine(
            FaultModel(seed=SEED, transient_rate=RATE),
            fast_policy(max_attempts=3),
            on_error="drop",
        )
        try:
            report = engine.profile(QUERY, mode="async")
            deltas = report.engine_deltas
            assert deltas.get("retries", 0) > 0
            assert deltas.get("call_errors", 0) > 0 or len(
                report.result.rows
            ) == len(state_names)
        finally:
            engine.pump.shutdown()

    def test_faultfree_profile_has_no_chaos_keys(self):
        engine = bench_engine(latency=None)
        report = engine.profile(QUERY, mode="async")
        for key in ("call_errors", "retries", "timeouts", "breaker_open_rejections"):
            assert key not in report.engine_deltas

    def test_cli_runs_a_chaos_statement(self, capsys):
        from repro.cli import main

        code = main(
            [
                "-c",
                QUERY,
                "--load-datasets",
                "--fault-rate",
                "0.3",
                "--fault-seed",
                str(SEED),
                "--on-error",
                "drop",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rows in" in out

    def test_cli_outage_with_raise_policy_fails(self, capsys):
        from repro.cli import main

        code = main(
            [
                "-c",
                GOOGLE_QUERY,
                "--load-datasets",
                "--outage",
                "Google",
                "--retry-attempts",
                "2",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
