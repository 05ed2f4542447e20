"""SweepEngine: a cached trial must be indistinguishable from a live one
— same result object, same counters, same events, same timer calls."""

import pytest

from repro import telemetry
from repro.csd.simulator import CSDSimulator
from repro.engine import SweepEngine, TrialEntry
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultPlan
from repro.faults.recovery import DEFAULT_POLICY


@pytest.fixture(autouse=True)
def _clean():
    telemetry.reset()
    yield
    telemetry.reset()


GRID = [(8, 0.0), (16, 0.5), (16, 1.0), (32, 0.3)]


def _signature():
    """Everything a trial writes into the registry, minus wall time."""
    snap = telemetry.snapshot()
    return (
        snap.get("counters", {}),
        {k: v["calls"] for k, v in snap.get("timers", {}).items()},
        telemetry.get_registry().trace.as_dicts(),
    )


class TestResultIdentity:
    def test_cold_trial_matches_live(self):
        engine = SweepEngine()
        for n, loc in GRID:
            telemetry.reset()
            live = CSDSimulator(n).run_trial(loc, trial_seed=7)
            live_sig = _signature()
            telemetry.reset()
            cached = engine.run_csd_trial(n, loc, 7)
            assert cached == live
            assert _signature() == live_sig

    def test_warm_replay_matches_cold(self):
        engine = SweepEngine()
        telemetry.reset()
        cold = engine.run_csd_trial(16, 0.5, 7)
        cold_sig = _signature()
        telemetry.reset()
        warm = engine.run_csd_trial(16, 0.5, 7)
        assert warm == cold
        assert _signature() == cold_sig
        assert engine.trials_cached == 2
        assert engine.stats()["trial_cache"]["hits"] == 1

    def test_two_source_is_part_of_the_key(self):
        engine = SweepEngine()
        one = engine.run_csd_trial(16, 0.5, 7)
        two = engine.run_csd_trial(16, 0.5, 7, two_source=True)
        assert two != one
        assert engine.stats()["trial_cache"]["size"] == 2
        live = CSDSimulator(16).run_trial(0.5, trial_seed=7, two_source=True)
        assert two == live


class TestFastPathGates:
    """Anything the replay cannot reproduce must run live, unchanged."""

    def test_no_seed_runs_live(self):
        engine = SweepEngine()
        engine.run_csd_trial(16, 0.5, None)
        assert engine.trials_live == 1 and engine.trials_cached == 0

    def test_tracing_runs_live(self):
        engine = SweepEngine()
        telemetry.enable_tracing()
        try:
            result = engine.run_csd_trial(16, 0.5, 7)
        finally:
            telemetry.enable_tracing(False)
        assert engine.trials_live == 1
        assert result == CSDSimulator(16).run_trial(0.5, trial_seed=7)

    def test_observation_replays_from_cache(self):
        """Observation no longer forces the live path: the grant log
        replays the sampled heatmaps/series byte-for-byte (see
        tests/megascale/test_vector_observation.py for the lockstep
        property), so an observed warm trial stays cached."""
        engine = SweepEngine()
        telemetry.enable_observation()
        try:
            telemetry.reset()
            telemetry.enable_observation()
            engine.run_csd_trial(16, 0.5, 7, sample_series=True)
            cold = telemetry.snapshot()
            telemetry.reset()
            telemetry.enable_observation()
            engine.run_csd_trial(16, 0.5, 7, sample_series=True)
            warm = telemetry.snapshot()
        finally:
            telemetry.enable_observation(False)
        assert engine.trials_cached == 2 and engine.trials_live == 0
        for section in ("heatmaps", "series", "gauges", "counters"):
            assert warm[section] == cold[section]

    def test_active_fault_plan_runs_live(self):
        engine = SweepEngine()
        injector = FaultInjector(FaultPlan.uniform(seed=3, rate=0.2))
        live = CSDSimulator(16).run_trial(
            0.5, trial_seed=7,
            faults=FaultInjector(FaultPlan.uniform(seed=3, rate=0.2)),
        )
        assert engine.run_csd_trial(16, 0.5, 7, faults=injector) == live
        assert engine.trials_live == 1

    def test_fault_free_plan_uses_cache(self):
        engine = SweepEngine()
        injector = FaultInjector(FaultPlan.none())
        cached = engine.run_csd_trial(16, 0.5, 7, faults=injector)
        assert engine.trials_cached == 1
        assert cached == CSDSimulator(16).run_trial(0.5, trial_seed=7)

    def test_retry_policy_without_blocks_uses_cache(self):
        # locality 1.0 chains neighbours only: nothing ever blocks, so
        # the retry policy leaves no telemetry and the cache is safe
        engine = SweepEngine()
        cached = engine.run_csd_trial(16, 1.0, 7, retry_policy=DEFAULT_POLICY)
        assert engine.trials_cached == 1
        live = CSDSimulator(16).run_trial(
            1.0, trial_seed=7, retry_policy=DEFAULT_POLICY
        )
        assert cached == live

    def test_retry_policy_with_blocks_runs_live(self):
        """Figure-3 provisioning never actually blocks, so plant a
        synthetic cache entry carrying a blocked span and check the
        gate: under a retry policy the replay (which cannot reproduce
        backoff telemetry) must be bypassed in favour of a live run."""
        engine = SweepEngine()
        engine.run_csd_trial(16, 0.5, 7)  # resolve the real entry
        key = (16, 0.5, 7, False)
        entry = engine._trials.get(key)
        engine._trials.put(
            key,
            TrialEntry(entry.result, entry.attempts, ((0, 4),), entry.grant_log),
        )
        live_before = engine.trials_live
        result = engine.run_csd_trial(16, 0.5, 7, retry_policy=DEFAULT_POLICY)
        assert engine.trials_live == live_before + 1
        assert result == CSDSimulator(16).run_trial(
            0.5, trial_seed=7, retry_policy=DEFAULT_POLICY
        )
        # without a retry policy the planted entry still replays
        assert engine.run_csd_trial(16, 0.5, 7) == entry.result
