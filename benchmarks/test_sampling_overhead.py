"""Benchmark: vector-path sampling must be free when observation is off.

``test_observe_overhead`` guards the *live* sampling sites; this bench
guards the fast-path ones the observatory grew: grant logging in the
engine's resolver and the :class:`VectorSampler` replay.  It runs the
engine's Figure 3 sweep (vector-kernel cold path) with observation disabled
(the default) and enabled, several interleaved repetitions each, and
records both medians in ``benchmarks/results/sampling_overhead.txt``.

With the observer disabled the replay path checks one attribute and
skips the sampler entirely — no instrument lookup, no difference-array
walk — so the disabled sweep must stay within noise of the enabled one.
We assert (a) a disabled sweep records no observation data at all and
(b) its median wall time does not exceed the enabled sweep by more than
the noise margin.
"""

import json
import statistics
import time

from repro import telemetry
from repro.engine import run_fig3

N_TRIALS = 10
REPS = 5
LOCALITIES = [1.0, 0.6, 0.2]
N_OBJECTS = 256


def _observation_size() -> int:
    snap = telemetry.snapshot()
    return (
        sum(g["updates"] for g in snap["gauges"].values())
        + sum(len(s["samples"]) for s in snap["series"].values())
        + sum(len(h["cells"]) for h in snap["heatmaps"].values())
    )


def _run_sweep_once(observe: bool) -> float:
    telemetry.reset()
    telemetry.enable_observation(observe)
    t0 = time.perf_counter()
    run_fig3(
        localities=LOCALITIES,
        n_trials=N_TRIALS,
        seed=42,
        n_objects_list=[N_OBJECTS],
    )
    elapsed = time.perf_counter() - t0
    if observe:
        assert _observation_size() > 0
    else:
        assert _observation_size() == 0, (
            "disabled observer recorded samples on the vector path — "
            "the zero-overhead guard is broken"
        )
    return elapsed


def test_disabled_sampling_adds_no_measurable_overhead(emit):
    disabled, enabled = [], []
    _run_sweep_once(False)  # warm-up: imports, allocator, caches
    for _ in range(REPS):  # interleave so drift hits both arms equally
        disabled.append(_run_sweep_once(False))
        enabled.append(_run_sweep_once(True))
    telemetry.enable_observation(False)
    telemetry.reset()

    med_off = statistics.median(disabled)
    med_on = statistics.median(enabled)
    overhead = (med_on - med_off) / med_off if med_off else 0.0

    payload = {
        "n_objects": N_OBJECTS,
        "n_trials": N_TRIALS,
        "localities": LOCALITIES,
        "reps": REPS,
        "kernel": "vector",
        "disabled_median_s": round(med_off, 4),
        "enabled_median_s": round(med_on, 4),
        "enabled_overhead_pct": round(100 * overhead, 1),
    }
    lines = [
        "Engine Figure 3 sweep (vector kernel): sampling disabled vs enabled",
        f"  disabled (default)  : {med_off:.4f} s median of {REPS}",
        f"  enabled (--observe) : {med_on:.4f} s median of {REPS}",
        f"  enabled overhead    : {100 * overhead:+.1f}%",
        "",
        "json: " + json.dumps(payload, sort_keys=True),
    ]
    emit("sampling_overhead", "\n".join(lines))

    # The disabled path must not cost more than the enabled one plus
    # noise: if disabled were secretly replaying samples, it would pace
    # the enabled arm instead of undercutting it.  10 ms absolute slack
    # absorbs scheduler jitter on short sweeps.
    assert med_off <= med_on * 1.25 + 0.010, (
        f"disabled sweep ({med_off:.4f}s) is not measurably cheaper than "
        f"the enabled one ({med_on:.4f}s) — the enabled-guard on the "
        "replay sampling site may have been dropped"
    )
