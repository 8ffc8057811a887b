"""The calibration loop: trace → profile → cost model → plan choice.

Covers the whole feedback path end to end: a traced workload against a
*skewed* web (one slow destination) yields, through
``engine.recalibrate()``, a
:class:`~repro.obs.calibration.CalibrationProfile` whose per-destination
latencies flip the Figure-7 placement choice the static constants would
make; a ring-wrapped trace marks its profile incomplete; and a profile
re-prices a :class:`~repro.plan.cost.CostModel` without changing its
formulas.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asynciter.pump import PumpLimits
from repro.datasets import load_all
from repro.obs import CalibrationProfile, DestinationCalibration, Observability
from repro.plan.cost import CostModel, choose_figure7_variant
from repro.storage import Database
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
    def test_skewed_workload_flips_the_plan_choice(self):
        engine = make_engine(latency=SkewedLatency())
        for sql in (SQL_AV, SQL_GOOGLE):
            assert len(engine.execute(sql, mode="async")) == 37
        engine.pump.quiesce(timeout=10.0)

        profile = engine.recalibrate()
        # The profile saw through the uniform mean to the per-source skew.
        av = profile.destinations["AV"].latency_mean
        assert av >= SLOW
        assert av > profile.destinations["Google"].latency_mean
        assert profile.samples >= 74
        assert not profile.incomplete

        model = engine.cost_model
        assert model.profile is profile
        assert model.destination_latency("AV") == av
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

    def test_profile_measures_fanout(self):
        engine = make_engine()
        assert len(engine.execute(SQL_AV, mode="async")) == 37
        engine.pump.quiesce(timeout=10.0)
        profile = CalibrationProfile.from_sources(
            tracer=engine.tracer, metrics=engine.metrics
        )
        # WebCount returns exactly one row per call.
        assert profile.destinations["AV"].fanout == pytest.approx(1.0)
        assert profile.destinations["AV"].samples == 37

    def test_wrapped_ring_marks_profile_incomplete(self):
        # A 16-slot ring cannot hold a 37-call query's events: the
        # profile must say so, while the registry still supplies
        # full-count latency samples.
        engine = make_engine(capacity=16)
        assert len(engine.execute(SQL_AV, mode="sync")) == 37
        assert engine.tracer.dropped > 0
        profile = engine.recalibrate()
        assert profile.incomplete
        assert profile.dropped_events == engine.tracer.dropped
        assert profile.samples >= 37  # registry-backed, ring-independent
        assert "INCOMPLETE ({} dropped)".format(
            engine.tracer.dropped
        ) in profile.summary()
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
        model.apply_profile(uniform_profile(0.05))  # profile saw no cache
        assert model.miss_fraction() == pytest.approx(0.5)  # live cache again
        assert CostModel(0.05).miss_fraction() == 1.0  # no signal at all

    def test_uniform_profile_preserves_static_estimates(self):
        # Per-destination wave pricing degenerates to the seed formula
        # when every destination shares the static mean: same seconds,
        # to the float.
        engine = WsqEngine(database=load_all(Database()))
        static = CostModel(latency_mean=0.05)
        calibrated = CostModel(0.05).apply_profile(
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
        measured = CostModel(0.05).apply_profile(
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
        cache, limits = object(), PumpLimits(max_total=4)
        model = CostModel(0.05, cache=cache, limits=limits)
        assert model.uncalibrated() is model  # nothing applied yet
        model.apply_profile(uniform_profile(0.2))
        static = model.uncalibrated()
        assert static is not model
        assert not static.calibrated
        assert static.latency_mean == 0.05
        assert (static.cache, static.limits) == (cache, limits)
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
        calibrated = CostModel(0.05).apply_profile(uniform_profile(latency))
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
