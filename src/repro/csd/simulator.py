"""Functional CSD simulator (paper Figure 3).

"We developed a functional CSD simulator for the evaluation.  Figure 3
shows the evaluation results of a one-source model (not a two-source
model), and how many channels are used in a random datapath
configuration."

A trial configures one full random datapath (one chaining request per
object, locality-controlled source IDs) on a :class:`DynamicCSDNetwork`
provisioned with N channels, then reports how many channels were actually
used.  Sweeping the locality knob regenerates the Figure 3 series; the
headline findings to reproduce are

* "Nobject channels were not used", and
* "Nobject/2 channels are sufficient for the random datapath",
* higher locality uses fewer channels.

Figure-3-scale sweeps (hundreds of trials across five array sizes) can
fan out over a process pool: both :func:`sweep_locality` and
:func:`figure3_series` take ``workers=``.  Trials are chunked by
locality point, every trial derives its seed from the sweep seed alone,
and worker processes ship their telemetry snapshots back with the
results — so the parallel path is **bit-identical** to the serial one
and loses no observability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.errors import ChannelAllocationError, RetryExhaustedError
from repro.csd.dynamic_csd import DynamicCSDNetwork
from repro.csd.locality import LocalityWorkload
from repro.telemetry.observe import Sampler, point_label
from repro.telemetry.pool import pool_map

__all__ = [
    "SimulationResult",
    "CSDSimulator",
    "sweep_locality",
    "figure3_series",
    "FIGURE3_NOBJECTS",
]

#: The array sizes plotted in Figure 3.
FIGURE3_NOBJECTS: Tuple[int, ...] = (16, 32, 64, 128, 256)


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one datapath-configuration trial."""

    n_objects: int
    locality_knob: float
    realized_locality: float
    used_channels: int
    highest_channel: int
    requests: int
    blocked: int

    @property
    def channel_fraction(self) -> float:
        """Used channels as a fraction of N — the paper's N/2 bound means
        this stays at or below ~0.5 for random datapaths."""
        return self.used_channels / self.n_objects


class CSDSimulator:
    """Runs datapath-configuration trials on a dynamic CSD network."""

    def __init__(self, n_objects: int, seed: Optional[int] = None) -> None:
        if n_objects < 2:
            raise ValueError("need at least two objects")
        self.n_objects = n_objects
        self.seed = seed

    def run_trial(
        self,
        locality: float,
        trial_seed: Optional[int] = None,
        two_source: bool = False,
        faults=None,
        retry_policy=None,
        sample_series: bool = False,
    ) -> SimulationResult:
        """Configure one full random datapath; count the channels used.

        The network is provisioned with N channels for the one-source
        model (2N for the two-source model, which needs one channel per
        operand chain) so nothing is artificially blocked; requests
        whose exact span is already saturated on *every* channel are
        counted as ``blocked`` (with that provisioning this stays 0).
        Only :class:`ChannelAllocationError` counts as a block — any
        other exception is a logic bug and propagates.

        ``two_source`` switches to §2.6.2's set-aside two-source model:
        each sink chains two operands, roughly doubling channel demand.

        ``faults`` (a :class:`repro.faults.FaultInjector`) attaches the
        segment-fault hook to the network; ``retry_policy`` (a
        :class:`repro.faults.RetryPolicy`) re-broadcasts blocked
        requests with backoff.  A request that stays blocked after the
        retries counts as ``blocked``, exactly like an unretried block.
        With both left ``None`` (or a fault-free injector) the trial is
        byte-identical to the uninstrumented path.

        When :func:`repro.telemetry.enable_observation` is on, a
        :class:`~repro.telemetry.Sampler` snapshots segment demand and
        channel occupancy into point-labelled heatmaps as the datapath
        fills in (one logical cycle per chaining request).
        ``sample_series`` additionally records the used-channel
        time-series — the sweep passes it for trial 0 of each point only,
        so samples from repeated trials never collide on one cycle axis.
        """
        workload = LocalityWorkload(
            self.n_objects, locality, seed=trial_seed if trial_seed is not None else self.seed
        )
        requests = (
            workload.requests_two_source() if two_source else workload.requests()
        )
        n_channels = 2 * self.n_objects if two_source else self.n_objects
        net = DynamicCSDNetwork(
            self.n_objects, n_channels=n_channels, faults=faults
        )
        if retry_policy is not None:
            from repro.faults.recovery import connect_with_retry
        blocked = 0
        telemetry.counter("fig3.trials").inc()
        observer = telemetry.observer()
        sampler = None
        if observer.enabled:
            label = point_label(n=self.n_objects, loc=locality)
            sampler = Sampler(
                observer.effective_stride(max(1, self.n_objects // 64))
            )
            sampler.attach_heatmap(
                telemetry.heatmap(f"csd.segment_demand{label}"),
                lambda: {
                    f"s{i}": v for i, v in enumerate(net.segment_demand())
                },
            )
            sampler.attach_heatmap(
                telemetry.heatmap(f"csd.channel_occupancy{label}"),
                lambda: {
                    f"ch{i}": v for i, v in enumerate(net.channel_occupancy())
                },
            )
            if sample_series:
                sampler.attach_series(
                    telemetry.time_series(f"csd.used_channels{label}"),
                    net.used_channels,
                )
        tracer = telemetry.tracer()
        with telemetry.scope("fig3.trial"), tracer.span(
            "fig3.trial", kind="trial", n_objects=self.n_objects,
            locality=locality,
            seed=trial_seed if trial_seed is not None else self.seed,
        ):
            for req in requests:
                for source in req.sources:
                    if source == req.sink:  # cannot happen by construction
                        continue
                    try:
                        if retry_policy is not None:
                            connect_with_retry(
                                net, source, req.sink, policy=retry_policy
                            )
                        else:
                            net.connect(source, req.sink)
                    except ChannelAllocationError:
                        blocked += 1
                    except RetryExhaustedError:
                        blocked += 1
                if sampler is not None:
                    # one chaining request = one observation cycle
                    sampler.tick()
        return SimulationResult(
            n_objects=self.n_objects,
            locality_knob=locality,
            realized_locality=workload.realized_locality(requests),
            used_channels=net.used_channels(),
            highest_channel=net.highest_used_channel(),
            requests=len(requests),
            blocked=blocked,
        )

    def run_many(
        self, locality: float, n_trials: int = 10
    ) -> List[SimulationResult]:
        """Independent trials with derived seeds (reproducible)."""
        if n_trials < 1:
            raise ValueError("need at least one trial")
        base = self.seed if self.seed is not None else 0
        return [
            self.run_trial(
                locality, trial_seed=base + 1000 * t, sample_series=(t == 0)
            )
            for t in range(n_trials)
        ]

    def mean_used_channels(self, locality: float, n_trials: int = 10) -> float:
        """Average used-channel count across trials."""
        results = self.run_many(locality, n_trials)
        return float(np.mean([r.used_channels for r in results]))


# -- sweep engine -----------------------------------------------------------


def _aggregate_point(
    n_objects: int, locality: float, trials: Sequence[SimulationResult]
) -> SimulationResult:
    """Fold one point's trial results into the averaged point.

    Shared verbatim by the serial sweep, the per-point pool fan-out, and
    the batched engine path (:mod:`repro.engine.sweep`): ``np.mean`` over
    the trials in trial order is the whole formula, so any path feeding
    the same trial results in the same order produces bit-identical
    floats.
    """
    return SimulationResult(
        n_objects=n_objects,
        locality_knob=locality,
        realized_locality=float(
            np.mean([t.realized_locality for t in trials])
        ),
        used_channels=int(round(np.mean([t.used_channels for t in trials]))),
        highest_channel=int(
            round(np.mean([t.highest_channel for t in trials]))
        ),
        requests=trials[0].requests,
        blocked=int(round(np.mean([t.blocked for t in trials]))),
    )


def record_point_gauges(point: SimulationResult) -> None:
    """Set one Figure-3 point's observation gauges.

    Shared by the legacy sweep and the engine paths
    (:mod:`repro.engine.sweep`), so every path leaves the same
    ``fig3.used_channels`` / ``fig3.blocked`` gauge state (one update
    per point) behind."""
    label = point_label(n=point.n_objects, loc=point.locality_knob)
    telemetry.gauge(f"fig3.used_channels{label}").set(point.used_channels)
    telemetry.gauge(f"fig3.blocked{label}").set(point.blocked)


def _sweep_point(
    n_objects: int, locality: float, n_trials: int, seed: int
) -> SimulationResult:
    """One averaged Figure 3 point — the unit of work both the serial
    and the parallel sweep paths share, so their outputs are identical
    by construction: every trial's seed derives only from ``seed`` and
    the trial index, never from execution order."""
    with telemetry.scope("fig3.point"), telemetry.tracer().span(
        "fig3.point", kind="sweep", n_objects=n_objects,
        locality=locality, trials=n_trials, seed=seed,
    ):
        sim = CSDSimulator(n_objects, seed=seed)
        trials = sim.run_many(locality, n_trials)
    point = _aggregate_point(n_objects, locality, trials)
    if telemetry.observer().enabled:
        record_point_gauges(point)
    return point


def sweep_locality(
    n_objects: int,
    localities: Sequence[float],
    n_trials: int = 10,
    seed: int = 42,
    workers: Optional[int] = None,
) -> List[SimulationResult]:
    """One averaged point per locality value — a single Figure 3 curve.

    The returned results carry the *mean* used-channel count of
    ``n_trials`` independent trials (rounded to the nearest integer for
    ``used_channels``), so curves are smooth enough to compare.

    ``workers`` > 1 fans the locality points out over a process pool;
    the output is bit-identical to the serial path (trial seeds depend
    only on ``seed`` and the trial index).
    """
    if workers is not None and workers > 1:
        return pool_map(
            _sweep_point,
            [(n_objects, loc, n_trials, seed) for loc in localities],
            workers,
        )
    return [
        _sweep_point(n_objects, loc, n_trials, seed) for loc in localities
    ]


def figure3_series(
    localities: Optional[Sequence[float]] = None,
    n_trials: int = 10,
    seed: int = 42,
    n_objects_list: Sequence[int] = FIGURE3_NOBJECTS,
    workers: Optional[int] = None,
) -> Dict[int, List[SimulationResult]]:
    """The full Figure 3 data set: one locality-swept curve per N.

    Returns ``{n_objects: [SimulationResult, ...]}`` with locality running
    from most local (left of the paper's plot) to fully random (right).

    ``workers`` > 1 runs every (N, locality) point of the whole series
    through one shared process pool, chunked by locality point, with
    output bit-identical to the serial path.
    """
    if localities is None:
        localities = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0]
    if workers is not None and workers > 1:
        points = pool_map(
            _sweep_point,
            [
                (n, loc, n_trials, seed)
                for n in n_objects_list
                for loc in localities
            ],
            workers,
        )
        series: Dict[int, List[SimulationResult]] = {}
        for point in points:
            series.setdefault(point.n_objects, []).append(point)
        return series
    return {
        n: sweep_locality(n, localities, n_trials=n_trials, seed=seed)
        for n in n_objects_list
    }
