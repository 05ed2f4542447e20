"""The self-profiling layer: guard discipline, stage recording, the
profile report, and the observation-document contract (``profile.*``
instruments are visible and are all that profiling adds)."""

import pytest

from repro import telemetry
from repro.telemetry.exposition import format_profile_report, observation_document
from repro.telemetry.profile import NULL_STAGE
from repro.engine import SweepEngine


@pytest.fixture(autouse=True)
def _clean():
    telemetry.reset()
    yield
    telemetry.reset()


class TestGuard:
    def test_disabled_by_default_and_returns_null_stage(self):
        assert not telemetry.profiler().enabled
        assert telemetry.profile_stage("engine.replay") is NULL_STAGE
        with telemetry.profile_stage("engine.replay"):
            pass
        assert not telemetry.snapshot().get("histograms", {}).get(
            "profile.engine.replay.seconds"
        )

    def test_reset_clears_the_switch(self):
        telemetry.enable_profiling()
        assert telemetry.profiler().enabled
        telemetry.reset()
        assert not telemetry.profiler().enabled

    def test_enabled_records_into_histogram(self):
        telemetry.enable_profiling()
        for _ in range(3):
            with telemetry.profile_stage("kernel.batch"):
                pass
        hist = telemetry.snapshot()["histograms"]["profile.kernel.batch.seconds"]
        assert len(hist) == 3
        assert all(v >= 0.0 for v in hist)

    def test_records_on_exceptional_exit(self):
        telemetry.enable_profiling()
        with pytest.raises(RuntimeError):
            with telemetry.profile_stage("kernel.batch"):
                raise RuntimeError("stage failed")
        hist = telemetry.snapshot()["histograms"]["profile.kernel.batch.seconds"]
        assert len(hist) == 1


class TestEngineStages:
    def test_cached_trial_profiles_resolve_and_replay(self):
        """Every vector-path trial resolves once and replays once."""
        telemetry.enable_profiling()
        engine = SweepEngine()
        engine.run_csd_trial(16, 0.5, 7)
        engine.run_csd_trial(16, 0.5, 7)
        hists = telemetry.snapshot()["histograms"]
        assert len(hists["profile.engine.resolve.seconds"]) == 2
        assert len(hists["profile.engine.replay.seconds"]) == 2
        assert len(hists["profile.kernel.grant_many.seconds"]) == 2

    def test_profiling_off_leaves_no_trace(self):
        # instruments registered by earlier profiled runs survive reset
        # as empty shells; what matters is that nothing is *recorded*
        engine = SweepEngine()
        engine.run_csd_trial(16, 0.5, 7)
        snap = telemetry.snapshot()
        assert not any(
            values
            for name, values in snap.get("histograms", {}).items()
            if name.startswith("profile.")
        )
        assert not any(
            value
            for name, value in snap.get("counters", {}).items()
            if name.startswith("profile.")
        )


class TestReportAndDocument:
    def test_profile_instruments_survive_document_elision(self):
        SweepEngine().run_csd_trial(16, 0.5, 7)
        plain = observation_document(telemetry.snapshot())
        telemetry.reset()
        telemetry.enable_profiling()
        SweepEngine().run_csd_trial(16, 0.5, 7)
        doc = observation_document(telemetry.snapshot())
        assert any(n.startswith("profile.") for n in doc["histograms"])
        doc["histograms"] = {
            n: h for n, h in doc["histograms"].items()
            if not n.startswith("profile.")
        }
        assert doc == plain

    def test_format_profile_report(self):
        telemetry.enable_profiling()
        engine = SweepEngine()
        engine.run_csd_trial(16, 0.5, 7)
        engine.run_csd_trial(16, 0.5, 7)
        doc = observation_document(telemetry.snapshot())
        report = format_profile_report(doc)
        assert "engine.resolve" in report
        assert "engine.replay" in report

    def test_report_without_stages_says_so(self):
        doc = observation_document(telemetry.snapshot())
        report = format_profile_report(doc)
        assert "no profile data" in report
