"""The sweep engine's trial runner: Figure-3 trials on the vector kernel.

A Figure 3 (or rate-0 fault-campaign) trial is a pure function of
``(n_objects, locality, trial_seed, two_source)``: the workload draws
every request from a seeded RNG and the grant protocol is deterministic.
So the engine resolves a trial in columns, without live channel or
request objects: it draws the sink and source columns
(:meth:`repro.csd.locality.LocalityWorkload.draw`), turns them into the
live loop's connect attempts as ``lo``/``hi`` columns
(:func:`repro.megascale.kernel.attempt_spans`), resolves them in one
:class:`repro.megascale.kernel.VectorCSDKernel` batch — the priority
encoder's first-fit grant on segment bitmasks — takes the grant log,
block count and realized locality from array masks and formulas, and
then *replays* the telemetry the live path would have recorded
(attempt, grant and block counts).

**Byte-identity contract.**  A resolved trial must be indistinguishable
— in its result *and* in the telemetry registry — from running
:meth:`repro.csd.simulator.CSDSimulator.run_trial` live.  The vector
path therefore only engages when nothing order- or object-dependent
would be recorded that the replay cannot reproduce: tracing disabled,
no live CSD faults (``faults is None``, or a plan whose CSD-segment
rate is zero and no quarantined CSD site — other fault kinds never
touch this protocol), and a concrete trial seed.
Under a retry policy it additionally requires the resolved trial to
have zero blocked requests (first-try successes leave no retry
telemetry; a blocked request would).  Anything else runs on the live
simulator, unchanged.

**Observation replays too.**  Every resolved trial keeps its *grant log*
(``cycle, lo, hi, channel`` per granted attempt, where a cycle is one
chaining request, exactly the live sampler's clock).  When observation is
enabled the replay feeds that log through
:class:`repro.megascale.kernel.VectorSampler`, which re-derives the
segment-demand / channel-occupancy heatmap columns and the used-channel
series at the same stride the live sampler uses — byte-identical
observation documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import telemetry
from repro.csd.locality import LocalityWorkload
from repro.csd.simulator import CSDSimulator, SimulationResult
from repro.faults.model import FaultKind
from repro.megascale.kernel import (
    VectorCSDKernel,
    VectorSampler,
    attempt_spans,
)
from repro.telemetry.observe import point_label

__all__ = ["SweepEngine", "TrialEntry"]


@dataclass(frozen=True)
class TrialEntry:
    """A resolved trial: its result plus the telemetry to replay.

    ``attempts`` is the number of connect attempts (one per source of
    every request); ``result.blocked`` counts those that found no free
    channel.  ``grant_log`` holds the granted attempts as
    four parallel int64 arrays ``(cycles, lo, hi, channel)`` in grant
    order, where a cycle is one chaining request (request index + 1 —
    the live sampler's clock); it is what makes observation replay
    possible.
    """

    result: SimulationResult
    attempts: int
    grant_log: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class SweepEngine:
    """Trial runner shared by the fig3 and faults sweeps."""

    # -- resolution ---------------------------------------------------------

    @staticmethod
    def _resolve_trial(
        n_objects: int, locality: float, seed: int, two_source: bool
    ) -> TrialEntry:
        """Resolve one trial on the vector kernel (no live network):
        the live path's attempt order, first-fit grants and blocks."""
        workload = LocalityWorkload(n_objects, locality, seed=seed)
        columns = workload.draw(two_source=two_source)
        lo, hi, cycles = attempt_spans(*columns)
        n_channels = 2 * n_objects if two_source else n_objects
        kern = VectorCSDKernel(n_channels, n_objects - 1)
        with telemetry.profile_stage("kernel.grant_many"):
            grants = kern.grant_many(lo, hi)
        granted = grants >= 0
        # one contiguous (4, grants) block; its rows are the log's columns
        log = np.stack(
            (cycles[granted], lo[granted], hi[granted], grants[granted])
        )
        result = SimulationResult(
            n_objects=n_objects,
            locality_knob=locality,
            realized_locality=workload.realized_locality(*columns[:2]),
            used_channels=kern.used_channels(),
            highest_channel=kern.highest_used_channel(),
            requests=len(columns[0]),
            blocked=len(grants) - int(np.count_nonzero(granted)),
        )
        return TrialEntry(result, len(lo), tuple(log))

    @staticmethod
    def _replay(entry: TrialEntry) -> None:
        """Re-emit the telemetry the live trial would have produced.

        Counter totals and instrument creation match the live path;
        instruments the live path never touches (e.g. grants in an
        all-blocked trial) stay untouched.
        """
        telemetry.counter("fig3.trials").inc()
        with telemetry.scope("fig3.trial"):
            telemetry.counter("csd.connect.requests").inc(entry.attempts)
            blocked = entry.result.blocked
            grants = entry.attempts - blocked
            if grants:
                telemetry.counter("csd.connect.grants").inc(grants)
            if blocked:
                telemetry.counter("csd.connect.blocks").inc(blocked)

    @staticmethod
    def _replay_observation(
        entry: TrialEntry,
        n_objects: int,
        locality: float,
        two_source: bool,
        sample_series: bool,
    ) -> None:
        """Re-emit the observation the live trial would have produced.

        Mirrors the sampler block of :meth:`CSDSimulator.run_trial`: the
        same instruments are created (even when the stride yields zero
        samples), and :class:`VectorSampler` re-derives every probe
        reading from the grant log at the same stride — so documents,
        ring eviction, and cell-cap ``dropped`` tallies all match the
        live path byte for byte.
        """
        label = point_label(n=n_objects, loc=locality)
        stride = telemetry.observer().effective_stride(max(1, n_objects // 64))
        segment_heatmap = telemetry.heatmap(f"csd.segment_demand{label}")
        channel_heatmap = telemetry.heatmap(f"csd.channel_occupancy{label}")
        series = (
            telemetry.time_series(f"csd.used_channels{label}")
            if sample_series
            else None
        )
        n_channels = 2 * n_objects if two_source else n_objects
        cycles, lo, hi, ch = entry.grant_log
        sampler = VectorSampler(n_objects - 1, n_channels, stride)
        sampler.replay(
            cycles, lo, hi, ch, entry.result.requests,
            segment_heatmap, channel_heatmap, series=series,
        )

    def run_csd_trial(
        self,
        n_objects: int,
        locality: float,
        trial_seed: Optional[int],
        two_source: bool = False,
        faults=None,
        retry_policy=None,
        sample_series: bool = False,
    ) -> SimulationResult:
        """Run one trial on the vector kernel or live; see the module
        docstring for when the vector path engages.  Drop-in equivalent
        of :meth:`CSDSimulator.run_trial` with the same arguments."""
        # CSD-fault-freedom is per-kind, not per-plan: with the
        # CSD_SEGMENT rate at zero, FaultPlan.draw early-returns None
        # before touching any RNG and the channel filter keeps every
        # candidate without counters or ledger writes, so a plan that
        # only faults switches/links/flits still replays byte-identically.
        # A quarantined site in the CSD domain (degradation can force one
        # faulty regardless of the plan) disables the vector path.
        csd_fault_free = faults is None or (
            faults.plan.rate_for(FaultKind.CSD_SEGMENT) == 0.0
            and not any(
                site.startswith("csd/") for site in faults.quarantined_sites()
            )
        )
        if (
            trial_seed is not None
            and not telemetry.tracer().enabled
            and csd_fault_free
        ):
            with telemetry.profile_stage("engine.resolve"):
                entry = self._resolve_trial(
                    n_objects, float(locality), int(trial_seed),
                    bool(two_source),
                )
            if retry_policy is None or not entry.result.blocked:
                with telemetry.profile_stage("engine.replay"):
                    self._replay(entry)
                    if telemetry.observer().enabled:
                        self._replay_observation(
                            entry, n_objects, locality, two_source,
                            sample_series,
                        )
                return entry.result
            # a blocked request under a retry policy exercises backoff
            # counters the replay cannot reproduce — run it live instead
        return CSDSimulator(n_objects).run_trial(
            locality,
            trial_seed=trial_seed,
            two_source=two_source,
            faults=faults,
            retry_policy=retry_policy,
            sample_series=sample_series,
        )
