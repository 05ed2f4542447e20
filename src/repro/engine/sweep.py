"""Sweep dispatch over the engine: :func:`run_fig3` and :func:`run_faults`.

Both sweeps hand out one task per sweep point — (N, locality) for
Figure 3, (N, rate) for the fault campaign — through
:func:`repro.telemetry.pool.pool_map` when ``workers`` > 1, or run the
points in order in this process otherwise.  Every trial of a point goes
through :meth:`~repro.engine.core.SweepEngine.run_csd_trial`, which
resolves it on the vector kernel or, under tracing or live CSD faults,
runs it on the live simulator.

Determinism: every trial seed derives from the sweep seed and the trial
index alone, points come back in task order with their telemetry
snapshots merged in that order, and each point is built by the live
oracles' own point function (:func:`repro.csd.simulator._sweep_point`,
:func:`repro.faults.campaign.campaign_point`) — so serial, parallel,
traced and observed runs all match the serial live sweeps byte for byte.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import telemetry
from repro.csd.locality import MAX_OBJECTS
from repro.csd.simulator import (
    FIGURE3_LOCALITIES,
    FIGURE3_NOBJECTS,
    SimulationResult,
    _sweep_point,
)
from repro.faults.campaign import (
    DEFAULT_POLICY,
    _LOCALITY,
    RetryPolicy,
    _campaign_report,
    _check_campaign,
    campaign_point,
)
from repro.engine.core import SweepEngine
from repro.telemetry.pool import pool_map

__all__ = ["run_fig3", "run_faults"]


def _check_sweep(n_objects_list: Sequence[int], n_trials: int) -> None:
    """The live sweeps' argument errors, raised before any dispatch."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if any(n < 2 for n in n_objects_list):
        raise ValueError("need at least two objects")
    if any(n >= MAX_OBJECTS for n in n_objects_list):
        raise ValueError(f"need fewer than {MAX_OBJECTS} objects")


def _dispatch(
    point: Callable[..., Any], tasks: List[tuple], workers: Optional[int]
) -> List[Any]:
    """``[point(*task) for task in tasks]``, over ``workers`` processes
    when more than one."""
    with telemetry.profile_stage("engine.dispatch"):
        if workers is not None and workers > 1:
            return pool_map(point, tasks, workers)
        return [point(*task) for task in tasks]


def run_fig3(
    localities: Optional[Sequence[float]] = None,
    n_trials: int = 5,
    seed: int = 42,
    n_objects_list: Sequence[int] = FIGURE3_NOBJECTS,
    workers: Optional[int] = None,
) -> Dict[int, List[SimulationResult]]:
    """Engine-path :func:`~repro.csd.simulator.figure3_series`: same
    return shape, byte-identical results and telemetry; ``workers`` > 1
    fans the (N, locality) points out over a process pool."""
    if localities is None:
        localities = FIGURE3_LOCALITIES
    _check_sweep(n_objects_list, n_trials)
    engine = SweepEngine()
    points = _dispatch(
        _sweep_point,
        [
            (n, loc, n_trials, seed, engine)
            for n in n_objects_list
            for loc in localities
        ],
        workers,
    )
    series: Dict[int, List[SimulationResult]] = {}
    for point in points:
        series.setdefault(point.n_objects, []).append(point)
    return series


def run_faults(
    rates: Sequence[float],
    n_objects_list: Sequence[int] = (16, 32, 64),
    n_trials: int = 8,
    seed: int = 42,
    policy: RetryPolicy = DEFAULT_POLICY,
    locality: float = _LOCALITY,
    workers: Optional[int] = None,
    csd_rate: Optional[float] = None,
) -> Dict[str, Any]:
    """Engine-path :func:`~repro.faults.campaign.run_campaign`: same
    report schema, byte-identical content and telemetry; ``workers`` > 1
    fans the (N, rate) points out over a process pool.

    ``csd_rate`` pins the CSD-segment fault rate independently of the
    swept ``rates`` (as in :func:`~repro.faults.campaign.run_campaign`);
    ``csd_rate=0.0`` keeps every datapath phase on the vector kernel.
    """
    _check_campaign(rates, n_objects_list, csd_rate)
    _check_sweep(n_objects_list, n_trials)
    engine = SweepEngine()
    points = _dispatch(
        campaign_point,
        [
            (n, r, n_trials, seed, policy, locality, engine, csd_rate)
            for r in rates
            for n in n_objects_list
        ],
        workers,
    )
    return _campaign_report(
        points, rates, n_objects_list, n_trials, seed, policy, locality,
        csd_rate,
    )
