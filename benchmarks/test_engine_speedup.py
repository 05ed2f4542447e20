"""Benchmark: the sweep engine's cold run against the live sweep at N=256.

This is the engine's acceptance criterion: running the N_object=256
Figure 3 sweep on a fresh :func:`repro.engine.run_fig3` must be at least
10x faster than the live serial sweep
(:func:`repro.csd.simulator.figure3_series`) on the same configuration,
because the engine resolves every trial on the vector kernel instead of
connecting live channel objects.  Both runs must agree exactly — the
engine buys throughput, never different numbers.

Results land in ``benchmarks/results/engine_speedup.txt``.
"""

import time

from repro import telemetry
from repro.csd.simulator import figure3_series
from repro.engine import run_fig3

N_OBJECTS = [256]
LOCALITIES = [1.0, 0.5, 0.0]
N_TRIALS = 5
SEED = 42
MIN_SPEEDUP = 10.0


def test_cold_engine_is_at_least_10x_faster_than_live(emit):
    kwargs = dict(
        localities=LOCALITIES, n_trials=N_TRIALS, seed=SEED,
        n_objects_list=N_OBJECTS,
    )
    telemetry.reset()

    t0 = time.perf_counter()
    live = figure3_series(**kwargs)
    live_s = time.perf_counter() - t0

    # every run_fig3 call starts a fresh engine, so each run is cold;
    # the best of three keeps a ~50 ms run clear of one scheduling stall
    cold_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        cold = run_fig3(**kwargs)
        cold_s = min(cold_s, max(time.perf_counter() - t0, 1e-9))

    assert cold == live, "engine output diverged from the live sweep"

    speedup = live_s / cold_s
    lines = [
        "Engine cold run vs live sweep (Figure 3, N=256)",
        f"  live: {live_s * 1e3:8.1f} ms   (live channel network)",
        f"  cold: {cold_s * 1e3:8.1f} ms   (best of 3, fresh engine each)",
        f"  speedup: {speedup:.1f}x   (floor {MIN_SPEEDUP:g}x)",
    ]
    emit("engine_speedup", "\n".join(lines))
    assert speedup >= MIN_SPEEDUP, (
        f"cold engine only {speedup:.2f}x faster than the live sweep "
        f"(floor {MIN_SPEEDUP}x)"
    )
