"""The calibration loop: trace → profile → cost model → plan choice.

Covers the whole feedback path end to end: a traced workload against a
*skewed* web (one slow destination) yields a
:class:`~repro.obs.calibration.CalibrationProfile` whose per-destination
latencies flip the Figure-7 placement choice the static constants would
make; the profile survives a JSON round trip through its schema
validator; :class:`~repro.obs.calibration.CalibrationPolicy` gates
low-sample and ring-wrapped (incomplete) profiles; and
:class:`~repro.serve.session.QueryService` recalibrates from live
traffic deterministically on a :class:`~repro.util.timing.VirtualClock`
— no sleeps anywhere.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_all
from repro.obs import (
    CalibrationPolicy,
    CalibrationProfile,
    DestinationCalibration,
    MetricsRegistry,
    Observability,
    Tracer,
    assert_valid_profile,
    validate_profile,
)
from repro.obs.calibration import PROFILE_KIND, PROFILE_VERSION
from repro.plan.cost import CostModel, choose_figure7_variant
from repro.serve import QueryService
from repro.storage import Database
from repro.util.timing import VirtualClock
from repro.web.latency import LatencyModel
from repro.wsq import WsqEngine

#: 37 external calls apiece (one WebCount per ACM SIG); plain WebCount
#: resolves to AV (first engine alphabetically), WebCount_Google to the
#: other destination.
SQL_AV = "Select Name, Count From Sigs, WebCount Where Name = T1 and T2 = 'computer'"
SQL_GOOGLE = (
    "Select Name, Count From Sigs, WebCount_Google "
    "Where Name = T1 and T2 = 'computer'"
)

SLOW = 0.02
FAST = 0.001


class SkewedLatency(LatencyModel):
    """AV slow, everything else fast — skew a uniform mean cannot see."""

    def __init__(self, slow=SLOW, fast=FAST):
        self.slow = slow
        self.fast = fast

    def delay(self, engine_name, expr_text):
        return self.slow if engine_name == "AV" else self.fast


def make_engine(latency=None, capacity=None, **kwargs):
    return WsqEngine(
        database=load_all(Database()),
        latency=latency,
        obs=Observability.enabled(capacity=capacity),
        **kwargs,
    )


def uniform_profile(latency, destinations=("AV",), samples=50, **kwargs):
    return CalibrationProfile(
        destinations={
            name: DestinationCalibration(
                name, samples=samples, latency_mean=latency
            )
            for name in destinations
        },
        samples=samples * len(destinations),
        **kwargs,
    )


class TestEndToEndLoop:
    def test_skewed_workload_flips_the_plan_choice(self, tmp_path):
        engine = make_engine(latency=SkewedLatency())
        for sql in (SQL_AV, SQL_GOOGLE):
            assert len(engine.execute(sql, mode="async")) == 37
        engine.pump.quiesce(timeout=10.0)

        applied, profile, reason = engine.recalibrate(
            policy=CalibrationPolicy(min_samples=1)
        )
        assert applied, reason
        # The profile saw through the uniform mean to the per-source skew.
        assert profile.destination_latency("AV") >= SLOW
        assert profile.destination_latency("AV") > profile.destination_latency(
            "Google"
        )
        assert profile.samples >= 74
        assert not profile.incomplete

        model = engine.cost_model
        assert model.calibrated
        static = model.uncalibrated()
        assert not static.calibrated

        # Plan flip: at the static low mean, Figure-7 variant (b)'s
        # second wave looks cheap, so (b) wins; the *measured* AV
        # latency prices the extra wave out and flips the choice to (a).
        static.latency_mean = 1e-5
        static_choice, _, _ = choose_figure7_variant(static, 37, 3)
        calibrated_choice, time_a, time_b = choose_figure7_variant(
            model, 37, 3, destination="AV"
        )
        assert static_choice == "b"
        assert calibrated_choice == "a"
        assert time_a < time_b

        # explain(form="costs") annotates calibrated-vs-static pricing.
        rendered = engine.explain(SQL_AV, form="costs")
        assert "cost model: calibrated" in rendered
        assert "vs static" in rendered

        # The profile survives persistence, schema check included.
        path = tmp_path / "profile.json"
        payload = profile.save(str(path))
        assert validate_profile(payload) == []
        reloaded = CalibrationProfile.load(str(path))
        assert reloaded.to_dict() == profile.to_dict()

        # A fresh engine can boot straight from the persisted profile.
        warm = WsqEngine(
            database=load_all(Database()), calibration=str(path)
        )
        assert warm.cost_model.calibrated
        assert warm.cost_model.destination_latency(
            "AV"
        ) == pytest.approx(profile.destination_latency("AV"))

    def test_profile_measures_concurrency_and_fanout(self):
        engine = make_engine()
        assert len(engine.execute(SQL_AV, mode="async")) == 37
        engine.pump.quiesce(timeout=10.0)
        profile = CalibrationProfile.from_observability(engine.obs)
        # Zero latency still leaves a (tiny) service window; the async
        # frontier overlaps at least some of the 37 calls.
        assert profile.effective_concurrency("AV") >= 1.0
        # WebCount returns exactly one row per call.
        assert profile.destination_fanout("AV") == pytest.approx(1.0)
        assert profile.reqsync_fanout == pytest.approx(1.0)


class TestProfilePersistence:
    def test_round_trip_preserves_every_field(self, tmp_path):
        profile = CalibrationProfile(
            destinations={
                "AV": DestinationCalibration(
                    "AV",
                    samples=40,
                    latency_mean=0.02,
                    latency_p50=0.019,
                    latency_p95=0.031,
                    fanout=2.5,
                    concurrency=8.0,
                ),
                "fetch": DestinationCalibration("fetch", samples=3),
            },
            cache_hit_ratio=0.4,
            reqsync_fanout=2.5,
            samples=43,
            dropped_events=0,
            incomplete=False,
            created_at=123.5,
        )
        path = tmp_path / "p.json"
        profile.save(str(path))
        with open(str(path)) as f:
            payload = json.load(f)
        assert payload["kind"] == PROFILE_KIND
        assert payload["version"] == PROFILE_VERSION
        reloaded = CalibrationProfile.load(str(path))
        assert reloaded.to_dict() == profile.to_dict()
        assert reloaded.destinations["AV"].fanout == 2.5
        assert reloaded.cache_hit_ratio == 0.4

    @pytest.mark.parametrize(
        "mutate, complaint",
        [
            (lambda p: p.update(kind="nope"), "kind"),
            (lambda p: p.update(version=PROFILE_VERSION + 1), "version"),
            (lambda p: p.update(version="1"), "version"),
            (lambda p: p.update(samples=-1), "samples"),
            (lambda p: p.update(dropped_events=-2), "dropped_events"),
            (lambda p: p.update(incomplete="yes"), "incomplete"),
            (lambda p: p.update(cache_hit_ratio=1.5), "cache_hit_ratio"),
            (lambda p: p.update(reqsync_fanout=-1.0), "reqsync_fanout"),
            (lambda p: p.update(destinations=[]), "destinations"),
            (
                lambda p: p["destinations"]["AV"].pop("latency_mean"),
                "latency_mean",
            ),
            (
                lambda p: p["destinations"]["AV"].update(samples=-5),
                "samples",
            ),
        ],
    )
    def test_validator_rejects_malformed_payloads(self, mutate, complaint):
        payload = uniform_profile(0.02).to_dict()
        assert validate_profile(payload) == []
        mutate(payload)
        problems = validate_profile(payload)
        assert problems, "expected a rejection"
        assert any(complaint in problem for problem in problems)
        with pytest.raises(ValueError):
            assert_valid_profile(payload)

    def test_non_dict_payload(self):
        assert validate_profile([1, 2]) != []


class TestCalibrationPolicy:
    def test_sample_floor(self):
        policy = CalibrationPolicy(min_samples=30)
        ok, reason = policy.admits(uniform_profile(0.02, samples=3))
        assert not ok and "insufficient samples" in reason
        ok, reason = policy.admits(uniform_profile(0.02, samples=30))
        assert ok

    def test_incomplete_profile_gate(self):
        stale = uniform_profile(0.02, incomplete=True, dropped_events=7)
        policy = CalibrationPolicy(min_samples=1)
        ok, reason = policy.admits(stale)
        assert not ok and "incomplete" in reason
        lenient = CalibrationPolicy(min_samples=1, allow_incomplete=True)
        assert lenient.admits(stale) == (True, "ok")

    def test_validation(self):
        with pytest.raises(ValueError):
            CalibrationPolicy(interval_seconds=0)
        with pytest.raises(ValueError):
            CalibrationPolicy(min_samples=-1)

    def test_wrapped_ring_marks_profile_incomplete(self):
        # A 16-slot ring cannot hold a 37-call query's events: the
        # profile must say so, and the default policy must refuse it
        # (the registry still supplies full-count latency samples, so
        # the sample floor alone would have let it through).
        engine = make_engine(capacity=16)
        assert len(engine.execute(SQL_AV, mode="sync")) == 37
        assert engine.tracer.dropped > 0
        applied, profile, reason = engine.recalibrate(
            policy=CalibrationPolicy()
        )
        assert profile.incomplete
        assert profile.dropped_events == engine.tracer.dropped
        assert profile.samples >= 37  # registry-backed, ring-independent
        assert not applied and "incomplete" in reason
        assert engine.cost_model is None or not engine.cost_model.calibrated
        # metrics_snapshot surfaces the same drop count.
        snapshot = engine.metrics_snapshot()
        assert snapshot["trace"]["dropped"] == engine.tracer.dropped


class TestCostModelCalibration:
    def test_miss_fraction_precedence(self):
        class FakeCache:
            def hit_ratio(self):
                return 0.5

        model = CostModel(0.05, cache=FakeCache())
        assert model.miss_fraction() == pytest.approx(0.5)  # live cache
        model.apply_profile(uniform_profile(0.05, cache_hit_ratio=0.25))
        assert model.miss_fraction() == pytest.approx(0.75)  # profile wins
        model.expected_hit_ratio = 0.9
        assert model.miss_fraction() == pytest.approx(0.1)  # explicit wins
        assert CostModel(0.05).miss_fraction() == 1.0  # no signal at all

    def test_uniform_profile_preserves_static_estimates(self):
        # Per-destination wave pricing degenerates to the seed formula
        # when every destination shares the static mean: same seconds,
        # to the float.
        engine = WsqEngine(database=load_all(Database()))
        static = CostModel(latency_mean=0.05)
        calibrated = CostModel.from_profile(
            uniform_profile(0.05, destinations=("AV", "Google", "fetch"))
        )
        for sql, mode in [(SQL_AV, "sync"), (SQL_AV, "async"),
                          (SQL_GOOGLE, "async")]:
            plan = engine.plan(sql, mode=mode)
            assert calibrated.seconds(plan) == pytest.approx(
                static.seconds(plan), rel=1e-12
            )

    def test_calibrated_fanout_overrides_heuristic(self):
        engine = WsqEngine(database=load_all(Database()))
        plan = engine.plan(SQL_AV, mode="async")
        heuristic = CostModel(0.05)
        measured = CostModel.from_profile(
            CalibrationProfile(
                destinations={
                    "AV": DestinationCalibration(
                        "AV", samples=50, latency_mean=0.05, fanout=3.0
                    )
                },
                samples=50,
            )
        )
        # WebCount's heuristic fan-out is 1 row/call; a measured 3.0
        # triples the estimated row volume.
        assert measured.estimate(plan).rows > heuristic.estimate(plan).rows

    def test_clone_and_uncalibrated_snapshot(self):
        model = CostModel(0.05, call_overhead=1e-3)
        assert model.uncalibrated() is model  # nothing applied yet
        model.apply_profile(uniform_profile(0.2))
        static = model.uncalibrated()
        assert static is not model
        assert static.latency_mean == 0.05
        assert model.latency_mean == pytest.approx(0.2)
        # Re-application keeps the original static twin.
        model.apply_profile(uniform_profile(0.3))
        assert model.uncalibrated().latency_mean == 0.05

    @settings(max_examples=30, deadline=None)
    @given(
        latency=st.floats(1e-5, 2.0),
        sigs=st.integers(1, 200),
        r_rows=st.integers(1, 50),
    )
    def test_variant_choice_oracle(self, latency, sigs, r_rows):
        # Oracle: pricing a destination from its calibrated latency must
        # agree exactly with a uniform static model pinned to that same
        # latency — calibration changes the *inputs*, never the formula.
        calibrated = CostModel.from_profile(uniform_profile(latency))
        oracle = CostModel(latency_mean=latency)
        choice, time_a, time_b = choose_figure7_variant(
            calibrated, sigs, r_rows, destination="AV"
        )
        expected, oracle_a, oracle_b = choose_figure7_variant(
            oracle, sigs, r_rows
        )
        assert choice == expected
        assert time_a == pytest.approx(oracle_a)
        assert time_b == pytest.approx(oracle_b)
        # Unknown destinations fall back to the (profile-set) mean.
        fallback = choose_figure7_variant(
            calibrated, sigs, r_rows, destination="elsewhere"
        )
        assert fallback[0] == choice
        assert fallback[1] == pytest.approx(time_a)
        assert fallback[2] == pytest.approx(time_b)


class TestServiceRecalibration:
    def test_recalibrates_from_live_traffic_on_virtual_clock(self):
        clock = VirtualClock()
        obs = Observability(
            tracer=Tracer(clock=clock), metrics=MetricsRegistry(), clock=clock
        )
        engine = WsqEngine(database=load_all(Database()), obs=obs)
        # Construction-time policy with an impossible floor: the reaper's
        # periodic attempts all reject deterministically.
        service = QueryService(
            engine,
            max_workers=1,
            calibration=CalibrationPolicy(min_samples=10**9),
        )
        try:
            assert len(service.submit(SQL_AV).result(timeout=30.0)) == 37
        finally:
            service.close()
        assert engine.cost_model is None or not engine.cost_model.calibrated

        # Swap in an admissive policy and drive the recalibration by
        # hand — the documented deterministic path (no reaper, no sleeps).
        service.calibration = CalibrationPolicy(
            interval_seconds=60.0, min_samples=1
        )
        clock.advance(61.0)  # clear any reaper-set pacing stamp
        assert service.maybe_recalibrate() is True
        assert service.maybe_recalibrate() is False  # paced: same instant
        assert service.maybe_recalibrate(force=True) is True  # force skips pacing
        clock.advance(61.0)
        assert service.maybe_recalibrate() is True  # interval elapsed

        assert service.last_profile is not None
        assert service.last_profile.samples >= 37
        assert engine.cost_model.calibrated
        metrics = engine.metrics
        assert metrics.counter_value("serve.recalibrate.applied") == 3
        stats = service.stats()
        assert stats["calibration"]["samples"] >= 37
        assert validate_profile(stats["calibration"]) == []

    def test_force_does_not_skip_the_admits_gate(self):
        engine = make_engine()
        service = QueryService(
            engine, max_workers=1,
            calibration=CalibrationPolicy(min_samples=10**9),
        )
        try:
            service.submit(SQL_AV).result(timeout=30.0)
        finally:
            service.close()
        assert service.maybe_recalibrate(force=True) is False
        assert service.last_profile is None
        assert engine.metrics.counter_value("serve.recalibrate.rejected") >= 1
