"""Benchmark: every instrumentation plane must be free when it is off.

One guard, five arms.  Each arm runs one workload in a
:func:`repro.telemetry.session` with its plane off (the default) and
on, several interleaved repetitions each, and records both medians in
``benchmarks/results/<arm>_overhead.txt``:

* ``tracing`` and ``observe``: the serial live Figure 3 sweep;
* ``sampling``: the engine's sweep, whose observation is the vector
  replay (grant logging plus :class:`VectorSampler`);
* ``profile``: the engine's sweep under its stage timers;
* ``slo``: the seeded service load with tracing and observation on and
  SLO evaluation over its records.

With a plane off every site it guards reduces to one attribute read,
so each arm asserts (a) an off run records nothing of that plane and
(b) the off run's median wall time does not exceed the on run's by more
than the noise margin: a disabled path doing the recording work would
pace the enabled one instead of undercutting it.
"""

import json
import statistics
import time

import pytest

from repro import telemetry
from repro.csd.simulator import sweep_locality
from repro.engine import run_fig3
from repro.service import LoadConfig, execute_load
from repro.telemetry.slo import evaluate_slos, parse_spec

REPS = 5
N_TRIALS = 10
LOCALITIES = [1.0, 0.6, 0.2]

_OBJECTIVES = parse_spec({"objective": [
    {"name": "latency-p99", "kind": "latency_p99", "threshold": 400000,
     "window_cycles": 65536, "budget": 0.25},
    {"name": "rejection-rate", "kind": "rejection_rate", "threshold": 0.5,
     "window_cycles": 65536, "budget": 0.25},
    {"name": "utilization-floor", "kind": "utilization_floor",
     "threshold": 0.001, "window_cycles": 65536, "budget": 0.5},
]})
_LOAD = LoadConfig(tenants=4, requests=48, seed=42)


def _live_sweep(on: bool) -> None:
    sweep_locality(64, LOCALITIES, n_trials=N_TRIALS, seed=42)


def _engine_sweep(n_objects: int):
    def run(on: bool) -> None:
        run_fig3(localities=LOCALITIES, n_trials=N_TRIALS, seed=42,
                 n_objects_list=[n_objects])
    return run


def _service_load(on: bool) -> None:
    records = execute_load(_LOAD, transport="inproc")
    if on:
        evaluate_slos(_OBJECTIVES, records, _LOAD.rows * _LOAD.cols)


def _spans(snap) -> int:
    return len(snap["spans"]["spans"])


def _observation(prefix: str = ""):
    def size(snap) -> int:
        # updates, not presence: reset() zeroes instruments but keeps
        # them registered across the interleaved runs
        return sum(
            len(state.get(key, ())) if key else int(state["updates"])
            for family, key in (
                ("gauges", None), ("series", "samples"), ("heatmaps", "cells")
            )
            for name, state in snap[family].items()
            if name.startswith(prefix)
        )
    return size


def _profile(snap) -> int:
    return sum(
        len(values) for name, values in snap["histograms"].items()
        if name.startswith("profile.")
    ) + sum(
        value for name, value in snap["counters"].items()
        if name.startswith("profile.")
    )


#: arm -> (switches of the on run, workload, what the plane records)
ARMS = {
    "tracing": ({"trace": True}, _live_sweep, [_spans]),
    "observe": ({"observe": True}, _live_sweep, [_observation()]),
    "sampling": ({"observe": True}, _engine_sweep(256), [_observation()]),
    "profile": ({"profile": True}, _engine_sweep(64), [_profile]),
    "slo": (
        {"trace": True, "observe": True},
        _service_load,
        [_spans, _observation("service.")],
    ),
}


def _run_once(arm: str, on: bool) -> float:
    switches, workload, probes = ARMS[arm]
    with telemetry.session(**(switches if on else {})):
        t0 = time.perf_counter()
        workload(on)
        elapsed = time.perf_counter() - t0
    snap = telemetry.snapshot()
    for probe in probes:
        if on:
            assert probe(snap) > 0
        else:
            assert probe(snap) == 0, (
                f"{arm}: a disabled plane recorded data — the zero-overhead "
                "guard is broken"
            )
    return elapsed


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_disabled_plane_adds_no_measurable_overhead(arm, emit):
    disabled, enabled = [], []
    _run_once(arm, False)  # warm-up: imports, allocator, caches
    for _ in range(REPS):  # interleave so drift hits both arms equally
        disabled.append(_run_once(arm, False))
        enabled.append(_run_once(arm, True))
    telemetry.reset()

    med_off = statistics.median(disabled)
    med_on = statistics.median(enabled)
    overhead = (med_on - med_off) / med_off if med_off else 0.0
    switches = sorted(ARMS[arm][0])
    payload = {
        "arm": arm,
        "switches": switches,
        "reps": REPS,
        "disabled_median_s": round(med_off, 4),
        "enabled_median_s": round(med_on, 4),
        "enabled_overhead_pct": round(100 * overhead, 1),
    }
    emit(f"{arm}_overhead", "\n".join([
        f"{arm} arm ({', '.join(switches)}): disabled vs enabled",
        f"  disabled (default) : {med_off:.4f} s median of {REPS}",
        f"  enabled            : {med_on:.4f} s median of {REPS}",
        f"  enabled overhead   : {100 * overhead:+.1f}%",
        "",
        "json: " + json.dumps(payload, sort_keys=True),
    ]))

    # 10 ms absolute slack absorbs scheduler jitter on short runs
    assert med_off <= med_on * 1.25 + 0.010, (
        f"{arm}: disabled run ({med_off:.4f}s) is not measurably cheaper "
        f"than the enabled one ({med_on:.4f}s) — an enabled-guard on a "
        "hot path may have been dropped"
    )
