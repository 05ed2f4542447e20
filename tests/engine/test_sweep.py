"""Whole-sweep identity: the engine entry points must reproduce the
legacy serial sweeps byte for byte — results, report JSON, and registry
— in serial, warm, and batched-parallel modes."""

import pytest

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
    """Counters/events/timer-calls, minus wall time and the engine's own
    effectiveness metrics (which the legacy path by definition lacks)."""
    snap = telemetry.snapshot()
    return (
        {
            k: v for k, v in snap.get("counters", {}).items()
            if not k.startswith("engine.")
        },
        {k: v["calls"] for k, v in snap.get("timers", {}).items()},
        {
            k: v for k, v in snap.get("histograms", {}).items()
            if not k.startswith("engine.")
        },
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
        series, sig = self._legacy()
        engine = SweepEngine()
        kwargs = dict(
            localities=LOCALITIES, n_trials=4, seed=42,
            n_objects_list=N_OBJECTS, engine=engine,
        )
        telemetry.reset()
        cold = run_fig3(**kwargs)
        telemetry.reset()
        warm = run_fig3(**kwargs)
        assert cold == warm == series
        assert _registry_signature() == sig
        assert engine.trials_live == 0  # every trial resolved or replayed

    def test_batched_parallel_matches_legacy(self):
        series, sig = self._legacy()
        telemetry.reset()
        got = run_fig3(
            localities=LOCALITIES, n_trials=4, seed=42,
            n_objects_list=N_OBJECTS, workers=2,
        )
        assert got == series
        assert _registry_signature() == sig

    def test_instrumented_run_delegates_to_legacy(self):
        series, _ = self._legacy()
        telemetry.reset()
        telemetry.enable_tracing()
        try:
            got = run_fig3(
                localities=LOCALITIES, n_trials=4, seed=42,
                n_objects_list=N_OBJECTS,
            )
        finally:
            telemetry.enable_tracing(False)
        assert got == series
        assert len(telemetry.tracer().spans) > 0  # spans were recorded


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
        channel each grant took) and the ``csd.block`` events in order."""
        telemetry.reset()
        telemetry.enable_observation()
        try:
            series = sweep(
                localities=LOCALITIES, n_trials=3, seed=7,
                n_objects_list=N_OBJECTS, **kwargs,
            )
            heatmaps = telemetry.snapshot()["heatmaps"]
            events = telemetry.get_registry().trace.as_dicts()
        finally:
            telemetry.enable_observation(False)
        return series, heatmaps, events

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
        _, legacy_json, _ = self._legacy()
        engine = SweepEngine()
        telemetry.reset()
        cold = run_faults(RATES, engine=engine, **self.KW)
        telemetry.reset()
        warm = run_faults(RATES, engine=engine, **self.KW)
        assert report_json(cold) == report_json(warm) == legacy_json
        # rate-0 trials replay from cache; faulty trials must stay live
        assert engine.trials_cached > 0
        assert engine.trials_live > 0

    def test_batched_parallel_matches_legacy(self):
        _, legacy_json, sig = self._legacy()
        telemetry.reset()
        got = run_faults(RATES, workers=2, **self.KW)
        assert report_json(got) == legacy_json
        assert _registry_signature() == sig

    def test_validates_arguments_like_legacy(self):
        """Bad arguments raise ValueError up front, serial and batched
        alike — never a numpy or IndexError from inside the dispatch."""
        bad_faults = [
            dict(rates=[], n_objects_list=N_OBJECTS, n_trials=3),
            dict(rates=RATES, n_objects_list=[], n_trials=3),
            dict(rates=RATES, n_objects_list=N_OBJECTS, n_trials=0),
            dict(rates=[1.5], n_objects_list=N_OBJECTS, n_trials=3),
            dict(rates=RATES, n_objects_list=[1], n_trials=3),
        ]
        bad_fig3 = [
            dict(n_objects_list=N_OBJECTS, n_trials=0),
            dict(n_objects_list=[1], n_trials=3),
        ]
        for workers in (None, 2):
            for kwargs in bad_faults:
                with pytest.raises(ValueError):
                    run_campaign(seed=42, workers=workers, **kwargs)
                with pytest.raises(ValueError):
                    run_faults(seed=42, workers=workers, **kwargs)
            for kwargs in bad_fig3:
                with pytest.raises(ValueError):
                    figure3_series(
                        LOCALITIES, seed=42, workers=workers, **kwargs
                    )
                with pytest.raises(ValueError):
                    run_fig3(LOCALITIES, seed=42, workers=workers, **kwargs)
