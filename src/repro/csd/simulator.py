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

:func:`sweep_locality` and :func:`figure3_series` run the sweep
serially on the live network; they are the oracles the sweep engine
(:func:`repro.engine.run_fig3`, which the ``fig3`` command runs, on the
vector kernel and optionally over a process pool) must reproduce bit
for bit.  Every trial derives its seed from the sweep seed and the
trial index alone.
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

__all__ = [
    "SimulationResult",
    "CSDSimulator",
    "sweep_locality",
    "figure3_series",
    "FIGURE3_NOBJECTS",
    "FIGURE3_LOCALITIES",
]

#: The array sizes plotted in Figure 3.
FIGURE3_NOBJECTS: Tuple[int, ...] = (16, 32, 64, 128, 256)

#: The locality knob of the full Figure 3 series, most local first.
FIGURE3_LOCALITIES: Tuple[float, ...] = (
    1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0,
)


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

        While observation is on (``telemetry.session(observe=True)``), a
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
        columns = workload.draw(two_source=two_source)
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
            for sink, *sources in zip(*(c.tolist() for c in columns)):
                for source in sources:
                    if source == sink:  # cannot happen by construction
                        continue
                    try:
                        if retry_policy is not None:
                            connect_with_retry(
                                net, source, sink, policy=retry_policy
                            )
                        else:
                            net.connect(source, sink)
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
            realized_locality=workload.realized_locality(*columns[:2]),
            used_channels=net.used_channels(),
            highest_channel=net.highest_used_channel(),
            requests=len(columns[0]),
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


# -- sweeps -----------------------------------------------------------------


def _sweep_point(
    n_objects: int, locality: float, n_trials: int, seed: int, engine=None
) -> SimulationResult:
    """One averaged Figure 3 point: every trial's seed derives only from
    ``seed`` and the trial index, never from execution order.

    ``engine`` (a :class:`repro.engine.SweepEngine`) runs the trials
    through :meth:`~repro.engine.SweepEngine.run_csd_trial` instead of
    the live simulator; the engine guarantees the same results and
    telemetry, so the point (``np.mean`` over the trials in trial
    order) is bit-identical either way.
    """
    with telemetry.scope("fig3.point"), telemetry.tracer().span(
        "fig3.point", kind="sweep", n_objects=n_objects,
        locality=locality, trials=n_trials, seed=seed,
    ):
        if engine is None:
            trials = CSDSimulator(n_objects, seed=seed).run_many(
                locality, n_trials
            )
        else:
            trials = [
                engine.run_csd_trial(
                    n_objects, locality, seed + 1000 * t,
                    sample_series=(t == 0),
                )
                for t in range(n_trials)
            ]
    point = SimulationResult(
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
    if telemetry.observer().enabled:
        label = point_label(n=n_objects, loc=locality)
        telemetry.gauge(f"fig3.used_channels{label}").set(point.used_channels)
        telemetry.gauge(f"fig3.blocked{label}").set(point.blocked)
    return point


def sweep_locality(
    n_objects: int,
    localities: Sequence[float],
    n_trials: int = 10,
    seed: int = 42,
) -> List[SimulationResult]:
    """One averaged point per locality value — a single Figure 3 curve,
    run serially on the live simulator.

    The returned results carry the *mean* used-channel count of
    ``n_trials`` independent trials (rounded to the nearest integer for
    ``used_channels``), so curves are smooth enough to compare.
    """
    return [
        _sweep_point(n_objects, loc, n_trials, seed) for loc in localities
    ]


def figure3_series(
    localities: Optional[Sequence[float]] = None,
    n_trials: int = 10,
    seed: int = 42,
    n_objects_list: Sequence[int] = FIGURE3_NOBJECTS,
) -> Dict[int, List[SimulationResult]]:
    """The full Figure 3 data set: one locality-swept curve per N.

    Returns ``{n_objects: [SimulationResult, ...]}`` with locality running
    from most local (left of the paper's plot) to fully random (right).
    This is the serial live oracle; :func:`repro.engine.run_fig3` runs
    the same sweep on the vector kernel, optionally over a process pool,
    with bit-identical output.
    """
    if localities is None:
        localities = FIGURE3_LOCALITIES
    return {
        n: sweep_locality(n, localities, n_trials=n_trials, seed=seed)
        for n in n_objects_list
    }
