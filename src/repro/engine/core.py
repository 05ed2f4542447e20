"""The sweep engine: memoized, replayable Figure-3 trial execution.

A Figure 3 (or rate-0 fault-campaign) trial is a pure function of
``(n_objects, locality, trial_seed, two_source)``: the workload draws
every request from a seeded RNG and the grant protocol is deterministic.
The engine exploits that twice:

* a **cold** trial resolves on
  :class:`repro.megascale.kernel.VectorCSDKernel` — the priority
  encoder's first-fit grant on segment bitmasks, with no live channel
  objects;
* a **trial cache** holds the finished
  :class:`~repro.csd.simulator.SimulationResult` together with the
  telemetry the live path would have produced (attempt count, blocked
  spans in order), so a warm trial costs one dict lookup plus a counter
  replay.

**Byte-identity contract.**  A cached trial must be indistinguishable —
in its result *and* in the telemetry registry — from running
:meth:`repro.csd.simulator.CSDSimulator.run_trial` live.  The fast path
therefore only engages when nothing order- or object-dependent would be
recorded that the replay cannot reproduce: tracing disabled, no live CSD
faults (``faults is None``, or a plan whose CSD-segment rate is zero and
no quarantined CSD site — other fault kinds never touch this protocol),
and a concrete trial seed.
Under a retry policy the fast path additionally requires the resolved
trial to have zero blocked requests (first-try successes leave no
retry telemetry; a blocked request would).  Anything else falls back to
the live simulator, unchanged.

**Observation replays too.**  Every resolved trial keeps its *grant log*
(``cycle, lo, hi, channel`` per granted attempt, where a cycle is one
chaining request, exactly the live sampler's clock).  When observation is
enabled the fast path feeds that log through
:class:`repro.megascale.kernel.VectorSampler`, which re-derives the
segment-demand / channel-occupancy heatmap columns and the used-channel
series at the same stride the live sampler uses — byte-identical
observation documents, cached speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.csd.locality import LocalityWorkload
from repro.csd.simulator import CSDSimulator, SimulationResult
from repro.engine.cache import LRUCache, MISSING
from repro.faults.model import FaultKind
from repro.megascale.kernel import VectorCSDKernel, VectorSampler
from repro.telemetry.observe import point_label

__all__ = ["SweepEngine", "TrialEntry"]

#: Trial-cache capacity (a full Figure 3 series at 10 trials is
#: 5 sizes x 11 localities x 10 = 550 entries; leave headroom for warm
#: re-runs at other seeds).
TRIAL_CAPACITY = 8_192


@dataclass(frozen=True)
class TrialEntry:
    """A resolved trial: its result plus the telemetry to replay.

    ``attempts`` is the number of connect attempts (one per source of
    every request); ``blocked_spans`` the ``(lo, hi)`` spans that found
    no free channel, in attempt order — exactly the ``csd.block`` events
    the live path emits.  ``grant_log`` holds the granted attempts as
    four parallel int64 arrays ``(cycles, lo, hi, channel)`` in grant
    order, where a cycle is one chaining request (request index + 1 —
    the live sampler's clock); it is what makes cached observation
    replay possible.
    """

    result: SimulationResult
    attempts: int
    blocked_spans: Tuple[Tuple[int, int], ...]
    grant_log: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class SweepEngine:
    """Memoizing trial runner shared by the fig3 and faults sweeps."""

    def __init__(self) -> None:
        self._trials = LRUCache(TRIAL_CAPACITY)
        #: Trials served from cache (replayed) vs. run on the live path.
        self.trials_cached = 0
        self.trials_live = 0

    # -- resolution ---------------------------------------------------------

    @staticmethod
    def _resolve_trial(
        n_objects: int, locality: float, seed: int, two_source: bool
    ) -> TrialEntry:
        """Resolve one trial on the vector kernel (no live network):
        the live path's attempt order, first-fit grants and blocks."""
        workload = LocalityWorkload(n_objects, locality, seed=seed)
        requests = (
            workload.requests_two_source() if two_source else workload.requests()
        )
        spans: List[Tuple[int, int]] = []
        span_cycles: List[int] = []
        for req_index, req in enumerate(requests):
            for source in req.sources:
                if source == req.sink:  # cannot happen by construction
                    continue
                spans.append(
                    (source, req.sink) if source < req.sink
                    else (req.sink, source)
                )
                span_cycles.append(req_index + 1)
        n_channels = 2 * n_objects if two_source else n_objects
        kern = VectorCSDKernel(n_channels, n_objects - 1)
        with telemetry.profile_stage("kernel.grant_many"):
            grants = kern.grant_many(spans)
        blocked = tuple(
            span for span, granted in zip(spans, grants) if granted is None
        )
        granted_rows = [
            (cycle, lo, hi, granted)
            for cycle, (lo, hi), granted in zip(span_cycles, spans, grants)
            if granted is not None
        ]
        # one contiguous (4, grants) block; its rows are the log's columns
        log = np.asarray(granted_rows, dtype=np.int64).reshape(-1, 4).T.copy()
        result = SimulationResult(
            n_objects=n_objects,
            locality_knob=locality,
            realized_locality=workload.realized_locality(requests),
            used_channels=kern.used_channels(),
            highest_channel=kern.highest_used_channel(),
            requests=len(requests),
            blocked=len(blocked),
        )
        return TrialEntry(result, len(spans), blocked, tuple(log))

    @staticmethod
    def _replay(entry: TrialEntry) -> None:
        """Re-emit the telemetry the live trial would have produced.

        Counter totals, instrument creation, and ``csd.block`` event
        order all match the live path; instruments the live path never
        touches (e.g. grants in an all-blocked trial) stay untouched.
        """
        telemetry.counter("fig3.trials").inc()
        with telemetry.scope("fig3.trial"):
            telemetry.counter("csd.connect.requests").inc(entry.attempts)
            grants = entry.attempts - len(entry.blocked_spans)
            if grants:
                telemetry.counter("csd.connect.grants").inc(grants)
            for lo, hi in entry.blocked_spans:
                telemetry.counter("csd.connect.blocks").inc()
                telemetry.event("csd.block", lo=lo, hi=hi)

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
        """Run (or replay) one trial; see the module docstring for when
        the cached path engages.  Drop-in equivalent of
        :meth:`CSDSimulator.run_trial` with the same arguments."""
        # CSD-fault-freedom is per-kind, not per-plan: with the
        # CSD_SEGMENT rate at zero, FaultPlan.draw early-returns None
        # before touching any RNG and the channel filter keeps every
        # candidate without counters or ledger writes, so a plan that
        # only faults switches/links/flits still replays byte-identically.
        # A quarantined site in the CSD domain (degradation can force one
        # faulty regardless of the plan) disables the fast path.
        csd_fault_free = faults is None or (
            faults.plan.rate_for(FaultKind.CSD_SEGMENT) == 0.0
            and not any(
                site.startswith("csd/") for site in faults.quarantined_sites()
            )
        )
        observing = telemetry.observer().enabled
        fast = (
            trial_seed is not None
            and not telemetry.tracer().enabled
            and csd_fault_free
        )
        if fast:
            key = (n_objects, float(locality), int(trial_seed), bool(two_source))
            entry = self._trials.get_or_miss(key)
            if entry is MISSING:
                with telemetry.profile_stage("engine.resolve"):
                    entry = self._resolve_trial(
                        n_objects, float(locality), int(trial_seed),
                        bool(two_source),
                    )
                self._trials.put(key, entry)
            if retry_policy is None or not entry.blocked_spans:
                self.trials_cached += 1
                with telemetry.profile_stage("engine.replay"):
                    self._replay(entry)
                    if observing:
                        self._replay_observation(
                            entry, n_objects, locality, two_source,
                            sample_series,
                        )
                return entry.result
            # a blocked request under a retry policy exercises backoff
            # counters the replay cannot reproduce — run it live instead
        self.trials_live += 1
        return CSDSimulator(n_objects).run_trial(
            locality,
            trial_seed=trial_seed,
            two_source=two_source,
            faults=faults,
            retry_policy=retry_policy,
            sample_series=sample_series,
        )

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "trials_cached": self.trials_cached,
            "trials_live": self.trials_live,
            "trial_cache": self._trials.stats(),
        }
