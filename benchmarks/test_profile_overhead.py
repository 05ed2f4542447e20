"""Benchmark: self-profiling must be free when it is off.

Same contract (and same harness shape) as the tracing and observation
overhead guards: runs the engine's Figure 3 sweep with profiling
disabled (the default) and enabled, several interleaved repetitions
each, and records both medians in
``benchmarks/results/profile_overhead.txt``.

With the profiler disabled every guarded stage (cold-trial resolution,
cached replay, kernel batches, pool dispatch) reduces to one attribute
read plus returning the shared null stage — no histogram lookup, no
clock read — so the disabled sweep must stay within noise of the
enabled one.  We assert (a) a disabled sweep records no profile data at
all and (b) its median wall time does not exceed the enabled sweep by
more than the noise margin.
"""

import json
import statistics
import time

from repro import telemetry
from repro.engine import run_fig3

N_TRIALS = 10
REPS = 5
LOCALITIES = [1.0, 0.6, 0.2]
N_OBJECTS = 64


def _profile_size() -> int:
    snap = telemetry.snapshot()
    return sum(
        len(values)
        for name, values in snap.get("histograms", {}).items()
        if name.startswith("profile.")
    ) + sum(
        value
        for name, value in snap.get("counters", {}).items()
        if name.startswith("profile.")
    )


def _run_sweep_once(profile: bool) -> float:
    telemetry.reset()
    telemetry.enable_profiling(profile)
    t0 = time.perf_counter()
    run_fig3(
        localities=LOCALITIES,
        n_trials=N_TRIALS,
        seed=42,
        n_objects_list=[N_OBJECTS],
    )
    elapsed = time.perf_counter() - t0
    if profile:
        assert _profile_size() > 0
    else:
        assert _profile_size() == 0, (
            "disabled profiler recorded stage timings — the "
            "zero-overhead guard is broken"
        )
    return elapsed


def test_disabled_profiling_adds_no_measurable_overhead(emit):
    disabled, enabled = [], []
    _run_sweep_once(False)  # warm-up: imports, allocator, caches
    for _ in range(REPS):  # interleave so drift hits both arms equally
        disabled.append(_run_sweep_once(False))
        enabled.append(_run_sweep_once(True))
    telemetry.enable_profiling(False)
    telemetry.reset()

    med_off = statistics.median(disabled)
    med_on = statistics.median(enabled)
    overhead = (med_on - med_off) / med_off if med_off else 0.0

    payload = {
        "n_objects": N_OBJECTS,
        "n_trials": N_TRIALS,
        "localities": LOCALITIES,
        "reps": REPS,
        "disabled_median_s": round(med_off, 4),
        "enabled_median_s": round(med_on, 4),
        "enabled_overhead_pct": round(100 * overhead, 1),
    }
    lines = [
        "Engine Figure 3 sweep: self-profiling disabled vs enabled",
        f"  disabled (default)  : {med_off:.4f} s median of {REPS}",
        f"  enabled (--profile) : {med_on:.4f} s median of {REPS}",
        f"  enabled overhead    : {100 * overhead:+.1f}%",
        "",
        "json: " + json.dumps(payload, sort_keys=True),
    ]
    emit("profile_overhead", "\n".join(lines))

    # The disabled path must not cost more than the enabled one plus
    # noise: if disabled were secretly timing stages, it would pace the
    # enabled arm instead of undercutting it.  10 ms absolute slack
    # absorbs scheduler jitter on short sweeps.
    assert med_off <= med_on * 1.25 + 0.010, (
        f"disabled sweep ({med_off:.4f}s) is not measurably cheaper than "
        f"the enabled one ({med_on:.4f}s) — the enabled-guard on a "
        "profile stage may have been dropped"
    )
