"""Unit tests for the Monte-Carlo fault campaign runner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.csd.simulator import _sweep_point
from repro.engine import run_faults
from repro.faults.campaign import (
    CAMPAIGN_SCHEMA,
    campaign_point,
    report_json,
    run_campaign,
    run_fault_trial,
)
from repro.faults.model import FaultPlan


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


class TestFaultFreeIdentity:
    @given(
        n_objects=st.sampled_from([8, 16, 32]),
        n_trials=st.integers(1, 3),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=10, deadline=None)
    def test_rate_zero_replays_fig3_byte_for_byte(self, n_objects, n_trials, seed):
        """A fault-free campaign's CSD aggregates equal the Figure 3
        sweep's for the same seed: the fault layer is provably free."""
        telemetry.reset()
        point = campaign_point(n_objects, 0.0, n_trials, seed, locality=0.5)
        fig3 = _sweep_point(n_objects, 0.5, n_trials, seed)
        assert point["csd"]["used_channels"] == fig3.used_channels
        assert point["csd"]["highest_channel"] == fig3.highest_channel
        assert point["csd"]["requests"] == fig3.requests
        assert point["csd"]["blocked"] == fig3.blocked
        assert point["csd"]["realized_locality"] == fig3.realized_locality

    def test_rate_zero_survival_is_total(self):
        point = campaign_point(16, 0.0, 2, seed=42)
        assert point["survival"] == 1.0
        assert point["fault_triggers"] == 0
        assert point["recovery_cycles"]["count"] == 0
        assert point["reconfig"]["first_try"] == 2


class TestSerialParallelIdentity:
    def test_reports_bit_identical(self):
        kwargs = dict(
            rates=[0.0, 0.1], n_objects_list=[16], n_trials=2, seed=7
        )
        serial = report_json(run_campaign(**kwargs))
        telemetry.reset()
        parallel = report_json(run_faults(**kwargs, workers=2))
        assert serial == parallel

    def test_parallel_run_merges_worker_telemetry(self):
        run_campaign([0.2], n_objects_list=[16], n_trials=2, seed=7)
        serial_triggers = telemetry.counter("faults.triggered").value
        telemetry.reset()
        run_faults([0.2], n_objects_list=[16], n_trials=2, seed=7, workers=2)
        assert telemetry.counter("faults.triggered").value == serial_triggers
        assert serial_triggers > 0


class TestTrialAndPoint:
    def test_faulty_trial_classifies_an_outcome(self):
        trial = run_fault_trial(16, 0.2, trial=0, seed=42)
        assert trial["reconfig"]["outcome"] in (
            "first_try", "recovered", "degraded", "lost"
        )
        assert 0.0 <= trial["served_fraction"] <= 1.0
        assert trial["fault_triggers"] > 0

    def test_point_reports_recovery_percentiles(self):
        point = campaign_point(16, 0.3, 3, seed=11)
        rec = point["recovery_cycles"]
        assert set(rec) == {"count", "p50", "p95", "p99", "mean", "max"}
        assert rec["p50"] <= rec["p95"] <= rec["p99"] <= rec["max"]

    def test_point_validates_inputs(self):
        with pytest.raises(ValueError):
            campaign_point(16, 1.5, 2, seed=1)
        with pytest.raises(ValueError):
            campaign_point(16, 0.1, 0, seed=1)

    def test_campaign_validates_inputs(self):
        with pytest.raises(ValueError):
            run_campaign([], n_objects_list=[16])
        with pytest.raises(ValueError):
            run_campaign([0.1], n_objects_list=[])
        with pytest.raises(ValueError):
            run_campaign([float("nan")], n_objects_list=[16], n_trials=1)
        with pytest.raises(ValueError):
            run_campaign(
                [0.0], n_objects_list=[16], n_trials=1, seed=1,
                csd_rate=float("nan"),
            )


class TestReportSchema:
    def test_report_shape_and_order(self):
        report = run_campaign(
            [0.0, 0.1], n_objects_list=[8, 16], n_trials=1, seed=3
        )
        assert report["schema"] == CAMPAIGN_SCHEMA
        assert len(report["points"]) == 4
        # rate-major grid order
        grid = [(p["rate"], p["n_objects"]) for p in report["points"]]
        assert grid == [(0.0, 8), (0.0, 16), (0.1, 8), (0.1, 16)]
        # canonical JSON round-trips
        import json

        assert json.loads(report_json(report)) == json.loads(
            report_json(report)
        )

    def test_survival_never_rises_with_rate_on_average(self):
        report = run_campaign(
            [0.0, 0.5], n_objects_list=[16], n_trials=3, seed=5
        )
        by_rate = {p["rate"]: p["survival"] for p in report["points"]}
        assert by_rate[0.0] >= by_rate[0.5]


class TestDrawMemoIsExact:
    """A campaign whose every draw is derived afresh, with no memo,
    writes the same report bytes as the memoized one."""

    RATES = [0.05, 0.2]
    KW = dict(n_objects_list=(16, 32), n_trials=2, seed=7)

    @pytest.mark.parametrize("runner", [run_campaign, run_faults])
    def test_report_matches_memo_free_draws(self, monkeypatch, runner):
        memoized = report_json(runner(self.RATES, **self.KW))
        draw = FaultPlan.draw
        monkeypatch.setattr(
            FaultPlan, "draw",
            lambda plan, kind, site: draw(
                FaultPlan.from_dict(plan.as_dict()), kind, site
            ),
        )
        telemetry.reset()
        assert report_json(runner(self.RATES, **self.KW)) == memoized
