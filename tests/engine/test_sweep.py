"""Whole-sweep identity: the engine entry points must reproduce the
live serial sweeps byte for byte — results, report JSON, and registry
— serially, on a rerun in the same process, and over a process pool."""

import inspect

import pytest

import repro.engine
import repro.engine.core
import repro.faults.campaign as campaign
from repro import telemetry
from repro.csd.simulator import figure3_series
from repro.engine import SweepEngine, run_faults, run_fig3
from repro.faults.campaign import report_json, run_campaign

LOCALITIES = [1.0, 0.5, 0.0]
N_OBJECTS = [16, 32]
RATES = [0.0, 0.05]


@pytest.fixture(autouse=True)
def _clean():
    telemetry.reset()
    yield
    telemetry.reset()


def _registry_signature():
    """Counters, timer calls and histograms — everything but wall time."""
    snap = telemetry.snapshot()
    return (
        snap.get("counters", {}),
        {k: v["calls"] for k, v in snap.get("timers", {}).items()},
        snap.get("histograms", {}),
    )


class TestFig3Identity:
    def _legacy(self):
        telemetry.reset()
        series = figure3_series(
            localities=LOCALITIES, n_trials=4, seed=42, n_objects_list=N_OBJECTS
        )
        return series, _registry_signature()

    def test_serial_engine_matches_legacy(self):
        series, sig = self._legacy()
        telemetry.reset()
        got = run_fig3(
            localities=LOCALITIES, n_trials=4, seed=42, n_objects_list=N_OBJECTS
        )
        assert got == series
        assert _registry_signature() == sig

    def test_warm_rerun_matches_cold(self):
        """A second sweep in the same process reproduces the first: no
        state leaks from one run into the next."""
        series, sig = self._legacy()
        kwargs = dict(
            localities=LOCALITIES, n_trials=4, seed=42,
            n_objects_list=N_OBJECTS,
        )
        telemetry.reset()
        cold = run_fig3(**kwargs)
        telemetry.reset()
        warm = run_fig3(**kwargs)
        assert cold == warm == series
        assert _registry_signature() == sig

    def test_batched_parallel_matches_legacy(self):
        """One pool task per (N, locality) point at ``workers=2``."""
        series, sig = self._legacy()
        telemetry.reset()
        got = run_fig3(
            localities=LOCALITIES, n_trials=4, seed=42,
            n_objects_list=N_OBJECTS, workers=2,
        )
        assert got == series
        assert _registry_signature() == sig

    def test_instrumented_run_delegates_to_legacy(self):
        """Under tracing every trial runs on the live simulator, so the
        traced engine sweep records the live sweep's spans."""
        kwargs = dict(
            localities=LOCALITIES, n_trials=4, seed=42,
            n_objects_list=N_OBJECTS,
        )
        spans = []
        for sweep in (figure3_series, run_fig3):
            telemetry.reset()
            telemetry.enable_tracing()
            try:
                got = sweep(**kwargs)
            finally:
                telemetry.enable_tracing(False)
            spans.append(
                [(s.name, s.attrs) for s in telemetry.tracer().spans]
            )
        assert got == self._legacy()[0]
        assert spans[0]  # spans were recorded
        assert spans[1] == spans[0]


class TestVectorKernelIdentity:
    """The engine's cold path, :class:`VectorCSDKernel`, must be
    indistinguishable from the live simulator — results, registry, and
    the route every request took."""

    def _legacy(self):
        telemetry.reset()
        series = figure3_series(
            localities=LOCALITIES, n_trials=3, seed=7, n_objects_list=N_OBJECTS
        )
        return series, _registry_signature()

    @staticmethod
    def _routes(sweep, **kwargs):
        """Run ``sweep`` observed; return its series plus every trial's
        route: the segment-demand / channel-occupancy heatmaps (which
        channel each grant took)."""
        with telemetry.session(observe=True):
            series = sweep(
                localities=LOCALITIES, n_trials=3, seed=7,
                n_objects_list=N_OBJECTS, **kwargs,
            )
        return series, telemetry.snapshot()["heatmaps"]

    def test_fig3_vector_matches_legacy_and_route(self):
        series, sig = self._legacy()
        telemetry.reset()
        vector = run_fig3(
            localities=LOCALITIES, n_trials=3, seed=7,
            n_objects_list=N_OBJECTS,
        )
        assert vector == series
        assert _registry_signature() == sig
        live = self._routes(figure3_series)
        assert live[1]  # the comparison below is not vacuous
        assert self._routes(run_fig3) == live

    def test_fig3_vector_parallel_matches_serial(self):
        serial = self._routes(run_fig3)
        assert self._routes(run_fig3, workers=2) == serial

    def test_faults_vector_with_pinned_csd_rate_matches_legacy(self):
        telemetry.reset()
        legacy = run_campaign(
            RATES, n_objects_list=[16], n_trials=2, seed=9, csd_rate=0.0
        )
        sig = _registry_signature()
        telemetry.reset()
        got = run_faults(
            RATES, n_objects_list=[16], n_trials=2, seed=9, csd_rate=0.0
        )
        assert report_json(got) == report_json(legacy)
        assert _registry_signature() == sig
        assert got["csd_rate"] == 0.0

    def test_csd_rate_key_absent_when_not_pinned(self):
        report = run_faults([0.0], n_objects_list=[16], n_trials=1, seed=9)
        assert "csd_rate" not in report


class TestFaultsIdentity:
    KW = dict(n_objects_list=N_OBJECTS, n_trials=3, seed=42)

    def _legacy(self):
        telemetry.reset()
        report = run_campaign(RATES, **self.KW)
        return report, report_json(report), _registry_signature()

    def test_serial_engine_report_is_byte_identical(self):
        _, legacy_json, sig = self._legacy()
        telemetry.reset()
        got = run_faults(RATES, **self.KW)
        assert report_json(got) == legacy_json
        assert _registry_signature() == sig

    def test_warm_rerun_matches_cold(self):
        """A second campaign in the same process reproduces the first."""
        _, legacy_json, sig = self._legacy()
        telemetry.reset()
        cold = run_faults(RATES, **self.KW)
        telemetry.reset()
        warm = run_faults(RATES, **self.KW)
        assert report_json(cold) == report_json(warm) == legacy_json
        assert _registry_signature() == sig

    def test_batched_parallel_matches_legacy(self):
        """One pool task per (N, rate) point at ``workers=2``."""
        _, legacy_json, sig = self._legacy()
        telemetry.reset()
        got = run_faults(RATES, workers=2, **self.KW)
        assert report_json(got) == legacy_json
        assert _registry_signature() == sig

    def test_validates_arguments_like_legacy(self):
        """Bad arguments raise ValueError up front, serial and parallel
        alike — never a numpy or IndexError from inside the dispatch."""
        bad_faults = [
            dict(rates=[], n_objects_list=N_OBJECTS, n_trials=3),
            dict(rates=RATES, n_objects_list=[], n_trials=3),
            dict(rates=RATES, n_objects_list=N_OBJECTS, n_trials=0),
            dict(rates=[1.5], n_objects_list=N_OBJECTS, n_trials=3),
            dict(rates=[float("nan")], n_objects_list=N_OBJECTS, n_trials=3),
            dict(rates=RATES, n_objects_list=N_OBJECTS, n_trials=3,
                 csd_rate=float("nan")),
            dict(rates=RATES, n_objects_list=[1], n_trials=3),
            dict(rates=RATES, n_objects_list=[2**31], n_trials=3),
        ]
        bad_fig3 = [
            dict(n_objects_list=N_OBJECTS, n_trials=0),
            dict(n_objects_list=[1], n_trials=3),
            dict(n_objects_list=[2**31], n_trials=3),
        ]
        for kwargs in bad_faults:
            with pytest.raises(ValueError):
                run_campaign(seed=42, **kwargs)
        for kwargs in bad_fig3:
            with pytest.raises(ValueError):
                figure3_series(LOCALITIES, seed=42, **kwargs)
        for workers in (None, 2):
            for kwargs in bad_faults:
                with pytest.raises(ValueError):
                    run_faults(seed=42, workers=workers, **kwargs)
            for kwargs in bad_fig3:
                with pytest.raises(ValueError):
                    run_fig3(LOCALITIES, seed=42, workers=workers, **kwargs)


class TestOpBoundaries:
    """The per-trial calls an external harness times by swapping a class
    or module attribute for a counting wrapper: each sweep must reach
    its trials through that attribute, with the same call shape."""

    @staticmethod
    def _count(monkeypatch, owner, attr):
        calls = []
        original = vars(owner)[attr]

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
        return calls

    def test_fig3_trials_go_through_run_csd_trial(self, monkeypatch):
        calls = self._count(monkeypatch, SweepEngine, "run_csd_trial")
        run_fig3(n_trials=2, n_objects_list=(16,))
        assert len(calls) == 22  # 11 default localities x 2 trials
        for args, _ in calls:
            engine, n, locality, trial_seed = args
            assert isinstance(engine, SweepEngine)
            assert (n, type(locality), type(trial_seed)) == (16, float, int)

    def test_fault_trials_go_through_run_fault_trial(self, monkeypatch):
        calls = self._count(monkeypatch, campaign, "run_fault_trial")
        run_faults([0, 0.05], n_objects_list=(16,), n_trials=3)
        assert len(calls) == 6

    def test_boundaries_are_plain_attributes(self):
        assert inspect.isfunction(SweepEngine.__dict__["run_csd_trial"])
        assert inspect.isfunction(vars(campaign)["run_fault_trial"])
        assert repro.engine.core.SweepEngine is SweepEngine
        for name in ("SweepEngine", "run_fig3", "run_faults"):
            assert hasattr(repro.engine, name)
