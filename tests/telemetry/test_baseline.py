"""Tests for the benchmark baseline recorder and regression guard."""

import copy
import json

import pytest

from repro.telemetry.baseline import (
    BASELINE_SCHEMA,
    BENCHES,
    check_baseline,
    load_baseline,
    measure_bench,
    record_baseline,
    write_baseline,
)

#: One tiny fig3 configuration shared by every test so the suite runs in
#: seconds; the repo-root BENCH_*.json files cover the canonical sizes.
TINY = {
    "n_objects": [16],
    "localities": [1.0, 0.0],
    "n_trials": 2,
    "seed": 42,
}


@pytest.fixture(scope="module")
def tiny_baseline():
    return record_baseline("fig3", TINY)


class TestRecord:
    def test_document_shape(self, tiny_baseline):
        assert tiny_baseline["schema"] == BASELINE_SCHEMA
        assert tiny_baseline["bench"] == "fig3"
        assert tiny_baseline["config"] == TINY
        assert len(tiny_baseline["deterministic"]) == 4
        assert tiny_baseline["wallclock"]["points_per_s"] > 0

    def test_metric_names_carry_point_labels(self, tiny_baseline):
        names = sorted(tiny_baseline["deterministic"])
        assert "fig3.used_channels[n=16,loc=1]" in names
        assert "fig3.blocked[n=16,loc=0]" in names

    def test_unknown_bench_rejected(self):
        with pytest.raises(ValueError):
            record_baseline("fig9")
        with pytest.raises(ValueError):
            measure_bench("fig9", {})

    def test_canonical_benches_registered(self):
        assert sorted(BENCHES) == [
            "engine", "faults", "fig3", "megascale", "planner", "service",
        ]


class TestCheck:
    def test_self_check_passes(self, tiny_baseline):
        measured = measure_bench("fig3", TINY)
        assert check_baseline(
            tiny_baseline, measured, skip_wallclock=True
        ) == []

    def test_synthetic_throughput_regression_fails(self, tiny_baseline):
        """The acceptance contract: a 20% throughput drop trips the
        guard at the default 15% tolerance."""
        measured = measure_bench("fig3", TINY)
        measured = copy.deepcopy(measured)
        measured["wallclock"]["points_per_s"] = (
            tiny_baseline["wallclock"]["points_per_s"] * 0.8
        )
        regressions = check_baseline(tiny_baseline, measured)
        assert any("throughput" in r for r in regressions)

    def test_skip_wallclock_ignores_throughput(self, tiny_baseline):
        measured = copy.deepcopy(measure_bench("fig3", TINY))
        measured["wallclock"]["points_per_s"] = 1e-6
        assert check_baseline(
            tiny_baseline, measured, skip_wallclock=True
        ) == []

    def test_deterministic_drift_fails_exactly(self, tiny_baseline):
        measured = copy.deepcopy(measure_bench("fig3", TINY))
        name = sorted(measured["deterministic"])[0]
        measured["deterministic"][name] += 1.0
        regressions = check_baseline(
            tiny_baseline, measured, skip_wallclock=True
        )
        assert any(name in r and "changed" in r for r in regressions)

    def test_missing_and_new_metrics_flagged(self, tiny_baseline):
        measured = copy.deepcopy(measure_bench("fig3", TINY))
        name = sorted(measured["deterministic"])[0]
        del measured["deterministic"][name]
        measured["deterministic"]["fig3.novel[n=16,loc=1]"] = 1.0
        regressions = check_baseline(
            tiny_baseline, measured, skip_wallclock=True
        )
        assert any("missing" in r for r in regressions)
        assert any("absent from baseline" in r for r in regressions)

    @pytest.mark.parametrize("tolerances", [
        dict(throughput_tolerance=float("nan")),
        dict(throughput_tolerance=1.0),
        dict(throughput_tolerance=-0.1),
        dict(latency_tolerance=float("nan")),
        dict(latency_tolerance=float("inf")),
        dict(latency_tolerance=-0.1),
    ])
    def test_tolerance_that_disables_a_check_is_rejected(
        self, tiny_baseline, tolerances
    ):
        with pytest.raises(ValueError, match="tolerance"):
            check_baseline(tiny_baseline, tiny_baseline, **tolerances)

    def test_zero_tolerances_are_valid(self, tiny_baseline):
        assert check_baseline(
            tiny_baseline, tiny_baseline,
            throughput_tolerance=0.0, latency_tolerance=0.0,
        ) == []

    def test_latency_metric_gets_threshold_not_identity(self):
        base = {
            "schema": BASELINE_SCHEMA,
            "bench": "faults",
            "config": {},
            "deterministic": {"faults.recovery_p95[n=16,rate=0.1]": 10.0},
            "wallclock": {"elapsed_s": 1.0, "points_per_s": 1.0},
        }
        within = {
            "deterministic": {"faults.recovery_p95[n=16,rate=0.1]": 11.0},
            "wallclock": {"elapsed_s": 1.0, "points_per_s": 1.0},
        }
        assert check_baseline(base, within, skip_wallclock=True) == []
        inflated = copy.deepcopy(within)
        # 20% over baseline plus the 2-cycle slack: must trip the guard
        inflated["deterministic"]["faults.recovery_p95[n=16,rate=0.1]"] = (
            10.0 * 1.2 + 5.0
        )
        regressions = check_baseline(base, inflated, skip_wallclock=True)
        assert any("p95 recovery latency" in r for r in regressions)

    def test_rejects_non_baseline_document(self):
        with pytest.raises(ValueError):
            check_baseline({"schema": "bogus"})


class TestFileRoundTrip:
    def test_write_load_round_trip(self, tiny_baseline, tmp_path):
        path = write_baseline(tiny_baseline, tmp_path / "BENCH_tiny.json")
        assert load_baseline(path) == tiny_baseline
        # canonical serialization: sorted keys, trailing newline
        text = path.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(tiny_baseline, sort_keys=True, indent=2) + "\n"

    def test_load_rejects_malformed(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{oops")
        with pytest.raises(ValueError):
            load_baseline(bad)
        bad.write_text('{"schema": "not.a.baseline"}')
        with pytest.raises(ValueError):
            load_baseline(bad)
