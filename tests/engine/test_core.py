"""SweepEngine: a vector-kernel trial must be indistinguishable from a
live one — same result object, same counters, same timer calls — and
anything the replay cannot reproduce must run live."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.csd.locality as locality_module
from repro import telemetry
from repro.csd.simulator import CSDSimulator
from repro.engine import SweepEngine
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultPlan
from repro.faults.recovery import DEFAULT_POLICY


@pytest.fixture(autouse=True)
def _clean():
    telemetry.reset()
    yield
    telemetry.reset()


GRID = [(8, 0.0), (16, 0.5), (16, 1.0), (32, 0.3)]


@pytest.fixture
def paths(monkeypatch):
    """Record which path each trial took: ``"vector"`` when the engine
    resolved it on the kernel and replayed it, ``"live"`` when it ran on
    :class:`CSDSimulator`."""
    return _record_paths(monkeypatch)


def _record_paths(monkeypatch):
    """Patch both trial paths to log their names; return the log."""
    taken = []
    resolve = SweepEngine._resolve_trial
    run_trial = CSDSimulator.run_trial

    def vector(*args, **kwargs):
        taken.append("vector")
        return resolve(*args, **kwargs)

    def live(self, *args, **kwargs):
        taken.append("live")
        return run_trial(self, *args, **kwargs)

    monkeypatch.setattr(SweepEngine, "_resolve_trial", staticmethod(vector))
    monkeypatch.setattr(CSDSimulator, "run_trial", live)
    return taken


def _signature():
    """Everything a trial writes into the registry, minus wall time."""
    snap = telemetry.snapshot()
    return (
        snap.get("counters", {}),
        {k: v["calls"] for k, v in snap.get("timers", {}).items()},
    )


class TestResultIdentity:
    def test_cold_trial_matches_live(self, paths):
        engine = SweepEngine()
        for n, loc in GRID:
            telemetry.reset()
            live = CSDSimulator(n).run_trial(loc, trial_seed=7)
            live_sig = _signature()
            telemetry.reset()
            paths.clear()
            vector = engine.run_csd_trial(n, loc, 7)
            assert paths == ["vector"]
            assert vector == live
            assert _signature() == live_sig

    @settings(deadline=None, max_examples=100)
    @given(
        n=st.integers(2, 96),
        locality=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**64 - 1),
        two_source=st.booleans(),
    )
    def test_engine_trial_matches_live_property(
        self, n, locality, seed, two_source
    ):
        """Any trial: on tiny arrays most sinks sit at an end and are
        drawn one request at a time, sizes that are not powers of two
        reject words, and both source models resolve on the kernel
        exactly as on the live network."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            taken = _record_paths(monkeypatch)
            telemetry.reset()
            live = CSDSimulator(n).run_trial(
                locality, trial_seed=seed, two_source=two_source
            )
            live_sig = _signature()
            telemetry.reset()
            taken.clear()
            vector = SweepEngine().run_csd_trial(
                n, locality, seed, two_source=two_source
            )
            assert taken == ["vector"]
            assert vector == live
            assert _signature() == live_sig

    def test_engine_trial_builds_no_request_objects(self, monkeypatch):
        """The vector path reads the draw's columns from draw to grant
        log: an N=1024 trial constructs no ``ChainingRequest`` (a trial
        built from request objects constructs 1,023)."""
        built = []
        request = locality_module.ChainingRequest

        def counted(*args, **kwargs):
            built.append(args)
            return request(*args, **kwargs)

        monkeypatch.setattr(locality_module, "ChainingRequest", counted)
        SweepEngine().run_csd_trial(1024, 0.0, 42)
        assert built == []

    def test_warm_replay_matches_cold(self):
        """An engine carries nothing from one trial to the next: a trial
        re-run on the same engine reproduces its result and telemetry."""
        engine = SweepEngine()
        telemetry.reset()
        cold = engine.run_csd_trial(16, 0.5, 7)
        cold_sig = _signature()
        telemetry.reset()
        warm = engine.run_csd_trial(16, 0.5, 7)
        assert warm == cold
        assert _signature() == cold_sig

    def test_two_source_is_part_of_the_key(self, paths):
        """``two_source`` changes the trial: the vector path resolves it
        on 2N channels, exactly like the live two-source model."""
        engine = SweepEngine()
        one = engine.run_csd_trial(16, 0.5, 7)
        two = engine.run_csd_trial(16, 0.5, 7, two_source=True)
        assert paths == ["vector", "vector"]
        assert two != one
        live = CSDSimulator(16).run_trial(0.5, trial_seed=7, two_source=True)
        assert two == live


class TestFastPathGates:
    """Anything the replay cannot reproduce must run live, unchanged."""

    def test_no_seed_runs_live(self, paths):
        SweepEngine().run_csd_trial(16, 0.5, None)
        assert paths == ["live"]

    def test_tracing_runs_live(self, paths):
        engine = SweepEngine()
        telemetry.enable_tracing()
        try:
            result = engine.run_csd_trial(16, 0.5, 7)
        finally:
            telemetry.enable_tracing(False)
        assert paths == ["live"]
        assert result == CSDSimulator(16).run_trial(0.5, trial_seed=7)

    def test_observation_replays_from_cache(self, paths):
        """Observation does not force the live path: the grant log
        replays the sampled heatmaps/series byte-for-byte (see
        tests/megascale/test_vector_observation.py for the lockstep
        property), so an observed trial stays on the vector kernel."""
        engine = SweepEngine()
        snaps = []
        for run in (
            lambda: CSDSimulator(16).run_trial(
                0.5, trial_seed=7, sample_series=True
            ),
            lambda: engine.run_csd_trial(16, 0.5, 7, sample_series=True),
        ):
            telemetry.reset()
            telemetry.enable_observation()
            try:
                run()
            finally:
                telemetry.enable_observation(False)
            snaps.append(telemetry.snapshot())
        live, vector = snaps
        assert paths == ["live", "vector"]
        for section in ("heatmaps", "series", "gauges", "counters"):
            assert vector[section] == live[section]

    def test_active_fault_plan_runs_live(self, paths):
        engine = SweepEngine()
        injector = FaultInjector(FaultPlan.uniform(seed=3, rate=0.2))
        live = CSDSimulator(16).run_trial(
            0.5, trial_seed=7,
            faults=FaultInjector(FaultPlan.uniform(seed=3, rate=0.2)),
        )
        paths.clear()
        assert engine.run_csd_trial(16, 0.5, 7, faults=injector) == live
        assert paths == ["live"]

    def test_fault_free_plan_uses_cache(self, paths):
        """A plan with no CSD-segment faults keeps the vector path."""
        engine = SweepEngine()
        injector = FaultInjector(FaultPlan.none())
        vector = engine.run_csd_trial(16, 0.5, 7, faults=injector)
        assert paths == ["vector"]
        assert vector == CSDSimulator(16).run_trial(0.5, trial_seed=7)

    def test_retry_policy_without_blocks_uses_cache(self, paths):
        # locality 1.0 chains neighbours only: nothing ever blocks, so
        # the retry policy leaves no telemetry and the vector path is safe
        engine = SweepEngine()
        vector = engine.run_csd_trial(16, 1.0, 7, retry_policy=DEFAULT_POLICY)
        assert paths == ["vector"]
        live = CSDSimulator(16).run_trial(
            1.0, trial_seed=7, retry_policy=DEFAULT_POLICY
        )
        assert vector == live

    def test_retry_policy_with_blocks_runs_live(self, monkeypatch):
        """Figure-3 provisioning never actually blocks, so make the
        resolver report a blocked attempt and check the gate: under a
        retry policy the replay (which cannot reproduce backoff
        telemetry) must be bypassed in favour of a live run."""
        resolve = SweepEngine._resolve_trial

        def blocked(*args):
            entry = resolve(*args)
            return dataclasses.replace(
                entry, result=dataclasses.replace(entry.result, blocked=1)
            )

        monkeypatch.setattr(SweepEngine, "_resolve_trial", staticmethod(blocked))
        engine = SweepEngine()
        result = engine.run_csd_trial(16, 0.5, 7, retry_policy=DEFAULT_POLICY)
        assert result.blocked == 0  # the live run, not the planted entry
        assert result == CSDSimulator(16).run_trial(
            0.5, trial_seed=7, retry_policy=DEFAULT_POLICY
        )
        # without a retry policy the planted entry still replays
        assert engine.run_csd_trial(16, 0.5, 7).blocked == 1
