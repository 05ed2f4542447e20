"""Batched sweep dispatch over the engine.

The legacy parallel paths (:func:`repro.csd.simulator.figure3_series`,
:func:`repro.faults.campaign.run_campaign`) fan out one *sweep point*
per pool task — fixed-size work units, so one straggler point stalls
the tail.  This layer flattens every sweep into *(point, trial)* tasks
and chunks them into batches (:data:`BATCHES_PER_WORKER` per worker),
which :func:`repro.telemetry.pool.pool_map` hands to the pool up front
so free workers pick up whatever is left.  Each worker process keeps
one persistent :class:`~repro.engine.core.SweepEngine`, so its trial
cache accumulates across the batches it serves.

Determinism: batches are slices of the flattened task list, results and
telemetry snapshots come back in batch order (never completion order),
per-trial telemetry captures are summed in trial order, and the
per-point aggregation is the exact helper the serial paths use — so the
batched output is byte-identical to the serial one.  Tracing cannot be
replayed from a cache, so with tracing enabled these entry points
delegate to the legacy traced paths unchanged.  Observation *can* be
replayed: cached trials re-derive their samples from the grant log
through :class:`~repro.megascale.kernel.VectorSampler` (see
:mod:`repro.engine.core`), so ``--engine --observe`` runs stay batched
and cached, and the parent sets the same per-point gauges the legacy
paths set.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.csd.simulator import (
    FIGURE3_NOBJECTS,
    SimulationResult,
    _aggregate_point,
    figure3_series,
    record_point_gauges,
)
from repro.faults.campaign import (
    CAMPAIGN_SCHEMA,
    DEFAULT_POLICY,
    _LOCALITY,
    _aggregate_campaign_point,
    _capture_before,
    _capture_delta,
    RetryPolicy,
    record_campaign_gauges,
    run_campaign,
    run_fault_trial,
)
from repro.engine.core import SweepEngine
from repro.telemetry.pool import pool_map

__all__ = ["run_fig3", "run_faults", "BATCHES_PER_WORKER"]

#: Batches per worker: small enough that a straggler batch costs ~1/4
#: of one worker's share, large enough that dispatch overhead stays
#: negligible.
BATCHES_PER_WORKER = 4

#: Default localities of the full Figure 3 series (mirrors
#: :func:`repro.csd.simulator.figure3_series`).
_DEFAULT_LOCALITIES = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0]

#: This worker process's engine, created on the first batch and reused
#: for every batch that lands here, so its trial cache stays warm.
_WORKER_ENGINE: Optional[SweepEngine] = None


def _worker_engine() -> SweepEngine:
    global _WORKER_ENGINE
    if _WORKER_ENGINE is None:
        _WORKER_ENGINE = SweepEngine()
    return _WORKER_ENGINE


def _traced() -> bool:
    return telemetry.tracer().enabled


def _check_sweep(n_objects_list: Sequence[int], n_trials: int) -> None:
    """The legacy sweeps' argument errors, raised before any dispatch."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if any(n < 2 for n in n_objects_list):
        raise ValueError("need at least two objects")


def _chunked(tasks: List[Any], workers: int) -> List[Tuple[Any, ...]]:
    size = max(1, -(-len(tasks) // (workers * BATCHES_PER_WORKER)))
    return [tuple(tasks[i : i + size]) for i in range(0, len(tasks), size)]


def _record_engine_telemetry(cached: int, live: int) -> None:
    """Engine effectiveness counters for ``--stats`` / snapshots.  Only
    touched when non-zero, so an engine run that cached nothing leaves
    the registry exactly as the legacy path would."""
    if cached:
        telemetry.counter("engine.trials.cached").inc(cached)
    if live:
        telemetry.counter("engine.trials.live").inc(live)


def _run_batch(run, items) -> list:
    """Worker side of a batch: ``run(engine, item)`` per item on this
    worker's engine, recording the batch latency and the engine counters
    into the registry snapshot :func:`pool_map` ships back."""
    engine = _worker_engine()
    cached0, live0 = engine.trials_cached, engine.trials_live
    start = time.perf_counter()
    out = [run(engine, item) for item in items]
    telemetry.histogram("engine.batch.seconds").observe(
        time.perf_counter() - start
    )
    _record_engine_telemetry(
        engine.trials_cached - cached0, engine.trials_live - live0
    )
    return out


# -- Figure 3 ---------------------------------------------------------------


def _engine_fig3_point(
    engine: SweepEngine, n_objects: int, locality: float, n_trials: int, seed: int
) -> SimulationResult:
    """Serial engine twin of :func:`repro.csd.simulator._sweep_point`,
    including the per-point observer gauges."""
    with telemetry.scope("fig3.point"), telemetry.tracer().span(
        "fig3.point", kind="sweep", n_objects=n_objects,
        locality=locality, trials=n_trials, seed=seed,
    ):
        trials = [
            engine.run_csd_trial(
                n_objects, locality, seed + 1000 * t, sample_series=(t == 0)
            )
            for t in range(n_trials)
        ]
    point = _aggregate_point(n_objects, locality, trials)
    if telemetry.observer().enabled:
        record_point_gauges(point)
    return point


def _fig3_trial(engine: SweepEngine, item) -> SimulationResult:
    n, loc, trial_seed, sample = item
    return engine.run_csd_trial(n, loc, trial_seed, sample_series=sample)


def run_fig3(
    localities: Optional[Sequence[float]] = None,
    n_trials: int = 5,
    seed: int = 42,
    n_objects_list: Sequence[int] = FIGURE3_NOBJECTS,
    workers: Optional[int] = None,
    engine: Optional[SweepEngine] = None,
) -> Dict[int, List[SimulationResult]]:
    """Engine-path :func:`~repro.csd.simulator.figure3_series`: same
    return shape, byte-identical results, trial batching instead of
    per-point fan-out.  Observation rides along (cached trials replay
    their observation documents byte-for-byte); tracing alone delegates
    to the legacy traced path.  ``engine`` (serial runs only) lets a
    caller keep the trial cache across sweeps."""
    if localities is None:
        localities = list(_DEFAULT_LOCALITIES)
    _check_sweep(n_objects_list, n_trials)
    if _traced():
        return figure3_series(
            localities=localities, n_trials=n_trials, seed=seed,
            n_objects_list=n_objects_list, workers=workers,
        )
    points = [(n, loc) for n in n_objects_list for loc in localities]
    if workers is not None and workers > 1:
        flat = _run_fig3_batched(points, n_trials, seed, workers)
        results = []
        observing = telemetry.observer().enabled
        for index, (n, loc) in enumerate(points):
            trials = flat[index * n_trials : (index + 1) * n_trials]
            with telemetry.scope("fig3.point"), telemetry.tracer().span(
                "fig3.point", kind="sweep", n_objects=n, locality=loc,
                trials=n_trials, seed=seed,
            ):
                pass  # trials already ran in the pool; keep the timer's call count
            point = _aggregate_point(n, loc, trials)
            if observing:
                record_point_gauges(point)
            results.append(point)
    else:
        eng = engine if engine is not None else SweepEngine()
        cached0, live0 = eng.trials_cached, eng.trials_live
        results = [
            _engine_fig3_point(eng, n, loc, n_trials, seed) for n, loc in points
        ]
        _record_engine_telemetry(
            eng.trials_cached - cached0, eng.trials_live - live0
        )
    series: Dict[int, List[SimulationResult]] = {}
    for point in results:
        series.setdefault(point.n_objects, []).append(point)
    return series


def _run_fig3_batched(
    points: List[Tuple[int, float]], n_trials: int, seed: int, workers: int
) -> List[SimulationResult]:
    tasks = [
        (n, loc, seed + 1000 * t, t == 0)
        for n, loc in points
        for t in range(n_trials)
    ]
    with telemetry.profile_stage("engine.dispatch"):
        batches = pool_map(
            _run_batch,
            [(_fig3_trial, chunk) for chunk in _chunked(tasks, workers)],
            workers,
        )
    return [result for batch in batches for result in batch]


# -- fault campaign ---------------------------------------------------------


def _fault_trial(engine: SweepEngine, item):
    """One fault trial with its own counter-delta/recovery capture, so
    the parent can rebuild exact per-point captures regardless of how
    batches split the points."""
    n_objects, rate, trial, seed, policy, locality, csd_rate = item
    before = _capture_before()
    result = run_fault_trial(
        n_objects, rate, trial, seed, policy=policy, locality=locality,
        engine=engine, csd_rate=csd_rate,
    )
    return (result, *_capture_delta(before))


def run_faults(
    rates: Sequence[float],
    n_objects_list: Sequence[int] = (16, 32, 64),
    n_trials: int = 8,
    seed: int = 42,
    policy: RetryPolicy = DEFAULT_POLICY,
    locality: float = _LOCALITY,
    workers: Optional[int] = None,
    engine: Optional[SweepEngine] = None,
    csd_rate: Optional[float] = None,
) -> Dict[str, Any]:
    """Engine-path :func:`~repro.faults.campaign.run_campaign`: same
    report schema, byte-identical content, trial batching instead of
    per-point fan-out.  Observation rides along (the fault phases sample
    live in the workers; cached CSD phases replay their samples); tracing
    alone delegates to the legacy traced path.

    ``csd_rate`` pins the CSD-segment fault rate independently of the
    swept ``rates`` (as in :func:`~repro.faults.campaign.run_campaign`)
    — ``csd_rate=0.0`` is what lets the engine's cache serve the
    datapath phase of a faulty reconfiguration campaign.
    """
    if not rates:
        raise ValueError("need at least one fault rate")
    if not n_objects_list:
        raise ValueError("need at least one array size")
    _check_sweep(n_objects_list, n_trials)
    if any(not 0.0 <= r <= 1.0 for r in rates):
        raise ValueError("fault rate must be in [0, 1]")
    if _traced():
        return run_campaign(
            rates, n_objects_list=n_objects_list, n_trials=n_trials,
            seed=seed, policy=policy, locality=locality, workers=workers,
            csd_rate=csd_rate,
        )
    grid = [(n, r) for r in rates for n in n_objects_list]
    points: List[Dict[str, Any]]
    if workers is not None and workers > 1:
        points = _run_faults_batched(
            grid, n_trials, seed, policy, locality, workers, csd_rate
        )
    else:
        from repro.faults.campaign import campaign_point

        eng = engine if engine is not None else SweepEngine()
        cached0, live0 = eng.trials_cached, eng.trials_live
        points = [
            campaign_point(
                n, r, n_trials, seed, policy=policy, locality=locality,
                engine=eng, csd_rate=csd_rate,
            )
            for n, r in grid
        ]
        _record_engine_telemetry(
            eng.trials_cached - cached0, eng.trials_live - live0
        )
    report: Dict[str, Any] = {
        "schema": CAMPAIGN_SCHEMA,
        "seed": seed,
        "trials": n_trials,
        "locality": float(locality),
        "rates": [float(r) for r in rates],
        "n_objects": [int(n) for n in n_objects_list],
        "policy": {
            "max_attempts": policy.max_attempts,
            "base_backoff_cycles": policy.base_backoff_cycles,
            "backoff_multiplier": policy.backoff_multiplier,
        },
        "points": points,
    }
    if csd_rate is not None:
        report["csd_rate"] = float(csd_rate)
    return report


def _run_faults_batched(
    grid: List[Tuple[int, float]],
    n_trials: int,
    seed: int,
    policy: RetryPolicy,
    locality: float,
    workers: int,
    csd_rate: Optional[float],
) -> List[Dict[str, Any]]:
    tasks = [
        (n, r, t, seed, policy, locality, csd_rate)
        for n, r in grid
        for t in range(n_trials)
    ]
    with telemetry.profile_stage("engine.dispatch"):
        batches = pool_map(
            _run_batch,
            [(_fault_trial, chunk) for chunk in _chunked(tasks, workers)],
            workers,
        )
    flat = [out for batch in batches for out in batch]
    points: List[Dict[str, Any]] = []
    observing = telemetry.observer().enabled
    for index, (n_objects, rate) in enumerate(grid):
        window = flat[index * n_trials : (index + 1) * n_trials]
        trials = [w[0] for w in window]
        # per-trial captures summed in trial order == one point-wide capture
        deltas = {
            name: sum(w[1][name] for w in window)
            for name in window[0][1]
        }
        recovery: List[float] = []
        for w in window:
            recovery.extend(w[2])
        with telemetry.scope("faults.point"), telemetry.tracer().span(
            "faults.point", kind="campaign", n_objects=n_objects,
            rate=rate, trials=n_trials, seed=seed,
        ):
            pass  # trials already ran in the pool; keep the timer's call count
        if observing:
            record_campaign_gauges(n_objects, rate, trials, recovery)
        points.append(
            _aggregate_campaign_point(
                n_objects, rate, n_trials, locality, trials, deltas, recovery
            )
        )
    return points
