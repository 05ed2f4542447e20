"""Benchmark baselines and the regression guard over them.

``record_baseline`` runs a small canonical configuration of one of the
headline benches (the Figure 3 sweep, the fault campaign, the sweep
engine's warm-vs-cold speedup) and captures two kinds of numbers:

* **deterministic** metrics — used/blocked channel counts, survival
  fractions, p95 recovery latency *in simulated cycles*.  These derive
  only from the seed, so any drift means the simulation's behaviour
  changed, and the guard flags them near-exactly (recovery latency gets
  a small tolerance because it is the quantity the paper's fault story
  is judged on — a threshold, not an identity).
* **wall-clock** metrics — points-per-second throughput.  These are
  machine-dependent; the guard compares them with a relative tolerance
  and CI can skip them entirely (``--skip-wallclock``) so a slow runner
  never produces a false alarm while local runs still catch real
  slowdowns.

The ``engine`` bench is special: it runs the Figure 3 configuration
twice on one :class:`repro.engine.SweepEngine` — cold, then warm — plus
once on the legacy serial path.  Its deterministic metrics include two
identity bits (warm == cold, engine == legacy) so a byte-identity break
fails the guard even under ``--skip-wallclock``; its wall-clock section
carries ``cold_s`` / ``warm_s`` / ``speedup``, and the guard requires
the warm run to be at least ``2x`` faster unless wall-clock checks are
skipped.

The ``megascale`` bench guards the vector CSD kernel the same way:
identity bits (vector == legacy at small N, identical grant streams in
the speedup harness, and a sampled-run bit asserting the vector engine
emits the byte-identical observation document the live sweep emits), a
deterministic mega-N (1024-4096) channel-demand series, and a
wall-clock ``kernel_speedup`` that must stay above ``50x`` unless
wall-clock checks are skipped.

The ``service`` bench drives the seeded multi-tenant load of
``repro service-load`` twice in-process and records two identity bits
(byte-identical reports, byte-identical SLO reports) plus the report's
latency percentiles — in simulated cycles, so they are deterministic
metrics, not wall-clock ones — per-tenant p99s, rejection counts,
fabric utilization, and the exact per-objective SLO burn rates.

The ``planner`` bench prices the shared defrag scenario suite
(:mod:`repro.planner.scenarios`) under every strategy and records three
identity/quality bits — the naive plan's moves must match the legacy
``Defragmenter`` execution exactly, the minimal plan must be strictly
cheaper than naive on every scenario, and the exact solver must never
be worse than greedy — plus each scenario's exact cost totals, so any
drop in ``rewires_saved`` is a deterministic regression.

The recorded ``BENCH_fig3.json`` / ``BENCH_faults.json`` /
``BENCH_engine.json`` / ``BENCH_megascale.json`` /
``BENCH_service.json`` / ``BENCH_planner.json`` files live at the repo
root; ``check_baseline`` re-runs the configuration they embed and
returns a list of regression descriptions (empty = pass).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.telemetry.observe import point_label

__all__ = [
    "BASELINE_SCHEMA",
    "BENCHES",
    "record_baseline",
    "measure_bench",
    "check_baseline",
    "load_baseline",
    "write_baseline",
]

#: Version tag of the baseline file format (bump on breaking change).
BASELINE_SCHEMA = "repro.telemetry.baseline/1"

#: Canonical (small, seconds-scale) configurations per bench.
BENCHES: Dict[str, Dict[str, Any]] = {
    "fig3": {
        "n_objects": [16, 32],
        "localities": [1.0, 0.5, 0.0],
        "n_trials": 3,
        "seed": 42,
    },
    "faults": {
        "rates": [0.0, 0.1],
        "n_objects": [16],
        "n_trials": 3,
        "seed": 42,
    },
    # the sweep engine's acceptance configuration: the N=256 sweep must
    # run >=2x faster warm than cold
    "engine": {
        "n_objects": [256],
        "localities": [1.0, 0.5, 0.0],
        "n_trials": 5,
        "seed": 42,
    },
    # the fabric service's acceptance configuration: the seeded load's
    # canonical report must be byte-identical across back-to-back runs
    # (identity bit), with deterministic latency percentiles in
    # simulated cycles and deterministic rejection counts
    "service": {
        "tenants": 4,
        "requests": 12,
        "rps": 500,
        "seed": 42,
        "rows": 8,
        "cols": 8,
        # evaluated over the run's records; the burn rates and the
        # report-identity bit are deterministic metrics
        "slo": {
            "objective": [
                {
                    "name": "latency-p99",
                    "kind": "latency_p99",
                    "threshold": 400000,
                    "window_cycles": 65536,
                    "budget": 0.25,
                },
                {
                    "name": "rejection-rate",
                    "kind": "rejection_rate",
                    "threshold": 0.5,
                    "window_cycles": 65536,
                    "budget": 0.25,
                },
                {
                    "name": "utilization-floor",
                    "kind": "utilization_floor",
                    "threshold": 0.001,
                    "window_cycles": 65536,
                    "budget": 0.5,
                },
            ]
        },
    },
    # the reconfiguration planner's acceptance configuration: the naive
    # plan must replay the legacy defrag loop move-for-move, the minimal
    # plan must be strictly cheaper on every scenario, and exact must be
    # greedy-or-better; per-scenario totals pin the rewires-saved floor
    "planner": {
        "scenarios": [
            "checkerboard",
            "pinned-band",
            "mixed-sizes",
            "head-slide",
            "exact-demo",
            "already-compact",
        ],
        "max_passes": 8,
        "node_budget": 50000,
    },
    # the vector kernel's acceptance configuration: bit-identity to the
    # legacy sweep at small N, deterministic mega-N series, and a >=50x
    # protocol-resolution speedup over the live network at N=256
    "megascale": {
        "identity_n_objects": [16, 64],
        "mega_n_objects": [1024, 2048, 4096],
        "localities": [1.0, 0.5, 0.0],
        "n_trials": 3,
        "mega_trials": 2,
        "speedup_n_objects": 256,
        "seed": 42,
    },
}

#: Deterministic metrics matching this substring are latency thresholds,
#: checked with ``latency_tolerance`` instead of exact equality.
_LATENCY_MARKER = "recovery_p95"

#: Absolute slack (simulated cycles) under the latency check, so a zero
#: baseline still has a meaningful threshold.
_LATENCY_SLACK_CYCLES = 2.0

#: Minimum warm-over-cold speedup the engine bench must sustain.
_ENGINE_MIN_SPEEDUP = 2.0

#: Minimum live-over-vector protocol-resolution speedup the megascale
#: bench must sustain at its acceptance size (N=256).
_MEGASCALE_MIN_SPEEDUP = 50.0


def measure_bench(bench: str, config: Dict[str, Any]) -> Dict[str, Any]:
    """Run one bench configuration; returns deterministic + wall-clock
    measurements in the baseline's shape."""
    if bench == "fig3":
        from repro.csd.simulator import figure3_series

        start = time.perf_counter()
        series = figure3_series(
            localities=list(config["localities"]),
            n_trials=int(config["n_trials"]),
            seed=int(config["seed"]),
            n_objects_list=list(config["n_objects"]),
        )
        elapsed = time.perf_counter() - start
        deterministic: Dict[str, float] = {}
        n_points = 0
        for n, points in sorted(series.items()):
            for point in points:
                label = point_label(n=n, loc=point.locality_knob)
                deterministic[f"fig3.used_channels{label}"] = float(
                    point.used_channels
                )
                deterministic[f"fig3.blocked{label}"] = float(point.blocked)
                n_points += 1
    elif bench == "faults":
        from repro.faults.campaign import run_campaign

        start = time.perf_counter()
        report = run_campaign(
            rates=list(config["rates"]),
            n_objects_list=list(config["n_objects"]),
            n_trials=int(config["n_trials"]),
            seed=int(config["seed"]),
        )
        elapsed = time.perf_counter() - start
        deterministic = {}
        n_points = 0
        for point in report["points"]:
            label = point_label(n=point["n_objects"], rate=point["rate"])
            deterministic[f"faults.survival{label}"] = float(point["survival"])
            deterministic[f"faults.recovery_p95{label}"] = float(
                point["recovery_cycles"]["p95"]
            )
            n_points += 1
    elif bench == "engine":
        from repro.csd.simulator import figure3_series
        from repro.engine import SweepEngine, run_fig3

        kwargs = dict(
            localities=list(config["localities"]),
            n_trials=int(config["n_trials"]),
            seed=int(config["seed"]),
            n_objects_list=list(config["n_objects"]),
        )
        engine = SweepEngine()
        start = time.perf_counter()
        cold = run_fig3(engine=engine, **kwargs)
        cold_s = max(time.perf_counter() - start, 1e-9)
        start = time.perf_counter()
        warm = run_fig3(engine=engine, **kwargs)
        warm_s = max(time.perf_counter() - start, 1e-9)
        legacy = figure3_series(**kwargs)
        deterministic = {}
        n_points = 0
        for n, points in sorted(cold.items()):
            for point in points:
                label = point_label(n=n, loc=point.locality_knob)
                deterministic[f"engine.used_channels{label}"] = float(
                    point.used_channels
                )
                deterministic[f"engine.blocked{label}"] = float(point.blocked)
                n_points += 1
        # identity bits: a byte-identity break trips the deterministic
        # guard even when wall-clock checks are skipped
        deterministic["engine.identical_warm"] = float(warm == cold)
        deterministic["engine.identical_legacy"] = float(legacy == cold)
        elapsed = cold_s + warm_s
        wallclock_extra = {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": cold_s / warm_s,
        }
    elif bench == "service":
        from repro.service import (
            LoadConfig,
            build_report,
            execute_load,
            report_json,
        )

        load_config = LoadConfig(
            tenants=int(config["tenants"]),
            requests=int(config["requests"]),
            rps=float(config["rps"]),
            seed=int(config["seed"]),
            rows=int(config["rows"]),
            cols=int(config["cols"]),
        )
        start = time.perf_counter()
        records = execute_load(load_config, transport="inproc")
        elapsed = time.perf_counter() - start
        report = build_report(load_config, records)
        rerun_records = execute_load(load_config, transport="inproc")
        rerun = build_report(load_config, rerun_records)
        deterministic = {
            # identity bit: a determinism break (interleaving leaking
            # into the report) trips the guard even under
            # --skip-wallclock
            "service.identical_rerun": float(
                report_json(report) == report_json(rerun)
            ),
            "service.requests_ok": float(report["requests"]["ok"]),
            "service.requests_rejected": float(
                report["requests"]["rejected"]
            ),
            "service.latency_p50": float(report["latency_cycles"]["p50"]),
            "service.latency_p95": float(report["latency_cycles"]["p95"]),
            "service.latency_p99": float(report["latency_cycles"]["p99"]),
            "service.makespan_cycles": float(
                report["fabric"]["makespan_cycles"]
            ),
            "service.utilization": float(report["fabric"]["utilization"]),
        }
        for entry in report["per_tenant"]:
            label = point_label(tenant=entry["tenant"])
            deterministic[f"service.tenant_p99{label}"] = float(
                entry["latency_cycles"]["p99"]
            )
        if config.get("slo"):
            from repro.telemetry.slo import (
                evaluate_slos,
                parse_spec,
                slo_report_json,
            )

            objectives = parse_spec(config["slo"])
            clusters = int(config["rows"]) * int(config["cols"])
            slo = evaluate_slos(objectives, records, clusters)
            slo_rerun = evaluate_slos(objectives, rerun_records, clusters)
            # a second identity bit: the budget-burn math must also be a
            # pure function of the seed, not just the latency rollup
            deterministic["service.slo_identical"] = float(
                slo_report_json(slo) == slo_report_json(slo_rerun)
            )
            for entry in slo["objectives"]:
                label = point_label(objective=entry["name"])
                deterministic[f"service.slo_burn{label}"] = float(
                    entry["burn_rate"]
                )
        n_points = int(report["requests"]["total"])
    elif bench == "planner":
        from repro.core.defrag import Defragmenter
        from repro.planner import MinimalPlanner, NaivePlanner, build_scenario

        max_passes = int(config["max_passes"])
        node_budget = int(config["node_budget"])
        naive_planner = NaivePlanner()
        greedy_planner = MinimalPlanner(mode="greedy")
        exact_planner = MinimalPlanner(mode="exact", node_budget=node_budget)
        deterministic = {}
        naive_matches = True
        minimal_cheaper = True
        exact_le_greedy = True
        n_points = 0
        start = time.perf_counter()
        for name in list(config["scenarios"]):
            chip = build_scenario(name)
            # planning is a pure function of the snapshot, so all three
            # strategies price the same chip; the legacy loop needs its
            # own build because executing it mutates the layout
            naive = naive_planner.plan_compaction(chip, max_passes=max_passes)
            greedy = greedy_planner.plan_compaction(chip, max_passes=max_passes)
            exact = exact_planner.plan_compaction(chip, max_passes=max_passes)
            legacy_moves = Defragmenter(build_scenario(name)).compact_until_stable(
                max_passes=max_passes
            )
            planned = [
                (m.name, m.old.path[0], m.new.path[0], len(m.new))
                for m in naive.moves
            ]
            executed = [
                (m.name, m.old_start, m.new_start, m.clusters)
                for m in legacy_moves
            ]
            naive_matches = naive_matches and planned == executed
            minimal_cheaper = (
                minimal_cheaper and greedy.cost.total < naive.cost.total
            )
            exact_le_greedy = (
                exact_le_greedy and exact.cost.total <= greedy.cost.total
            )
            label = point_label(scenario=name)
            deterministic[f"planner.naive_total{label}"] = float(
                naive.cost.total
            )
            deterministic[f"planner.minimal_total{label}"] = float(
                greedy.cost.total
            )
            deterministic[f"planner.exact_total{label}"] = float(
                exact.cost.total
            )
            # the regression floor: saved rewires are pinned exactly
            deterministic[f"planner.rewires_saved{label}"] = float(
                greedy.rewires_saved
            )
            n_points += 1
        elapsed = time.perf_counter() - start
        # identity/quality bits: any break trips the deterministic guard
        # even under --skip-wallclock
        deterministic["planner.naive_matches_legacy"] = float(naive_matches)
        deterministic["planner.minimal_cheaper"] = float(minimal_cheaper)
        deterministic["planner.exact_le_greedy"] = float(exact_le_greedy)
    elif bench == "megascale":
        from repro.csd.simulator import figure3_series
        from repro.engine import run_fig3
        from repro.megascale.bench import measure_kernel_speedup

        localities = list(config["localities"])
        seed = int(config["seed"])
        # identity leg: the vector kernel must replay the legacy sweep
        # byte-for-byte at sizes the live simulator can still afford
        id_kwargs = dict(
            localities=localities,
            n_trials=int(config["n_trials"]),
            seed=seed,
            n_objects_list=list(config["identity_n_objects"]),
        )
        vector_small = run_fig3(**id_kwargs)
        legacy_small = figure3_series(**id_kwargs)
        deterministic = {
            "megascale.identical_legacy": float(vector_small == legacy_small)
        }
        # sampled-run determinism bit: under observation the vector
        # engine must emit the byte-identical observation document the
        # live sweep emits (same stride, same probes, same document)
        from repro import telemetry
        from repro.telemetry.exposition import observation_document, observe_json

        obs_kwargs = dict(
            localities=localities,
            n_trials=int(config["n_trials"]),
            seed=seed,
            n_objects_list=[int(config["identity_n_objects"][0])],
        )
        try:
            telemetry.reset()
            telemetry.enable_observation()
            figure3_series(**obs_kwargs)
            live_doc = observe_json(observation_document(telemetry.snapshot()))
            telemetry.reset()
            telemetry.enable_observation()
            run_fig3(**obs_kwargs)
            vector_doc = observe_json(observation_document(telemetry.snapshot()))
        finally:
            telemetry.enable_observation(False)
            telemetry.reset()
        deterministic["megascale.identical_observed"] = float(
            vector_doc == live_doc
        )
        # mega leg: sizes only the vector kernel reaches; the series is
        # seed-deterministic, so any drift is a behaviour change
        start = time.perf_counter()
        mega = run_fig3(
            localities=localities,
            n_trials=int(config["mega_trials"]),
            seed=seed,
            n_objects_list=list(config["mega_n_objects"]),
        )
        elapsed = time.perf_counter() - start
        n_points = 0
        for n, points in sorted(mega.items()):
            for point in points:
                label = point_label(n=n, loc=point.locality_knob)
                deterministic[f"megascale.used_channels{label}"] = float(
                    point.used_channels
                )
                deterministic[f"megascale.blocked{label}"] = float(point.blocked)
                n_points += 1
        # speedup leg: raw grant resolution, live network vs kernel,
        # on identical span streams (the kernel bench asserts identity)
        speed = measure_kernel_speedup(
            n_objects=int(config["speedup_n_objects"]), seed=seed
        )
        deterministic["megascale.identical_speedup"] = float(speed["identical"])
        wallclock_extra = {
            "live_s": speed["live_s"],
            "kernel_s": speed["kernel_s"],
            "kernel_speedup": speed["kernel_speedup"],
        }
    else:
        raise ValueError(f"unknown bench {bench!r} (want one of {sorted(BENCHES)})")
    elapsed = max(elapsed, 1e-9)
    wallclock = {
        "elapsed_s": elapsed,
        "points_per_s": n_points / elapsed,
    }
    if bench in ("engine", "megascale"):
        wallclock.update(wallclock_extra)
    return {
        "deterministic": deterministic,
        "wallclock": wallclock,
    }


def record_baseline(
    bench: str, config: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Measure ``bench`` and wrap the result as a baseline document."""
    if config is None:
        config = BENCHES[bench] if bench in BENCHES else None
    if config is None:
        raise ValueError(f"unknown bench {bench!r} (want one of {sorted(BENCHES)})")
    measured = measure_bench(bench, config)
    return {
        "schema": BASELINE_SCHEMA,
        "bench": bench,
        "config": config,
        "deterministic": measured["deterministic"],
        "wallclock": measured["wallclock"],
    }


def check_baseline(
    baseline: Dict[str, Any],
    measured: Optional[Dict[str, Any]] = None,
    throughput_tolerance: float = 0.15,
    latency_tolerance: float = 0.15,
    skip_wallclock: bool = False,
) -> List[str]:
    """Compare a fresh measurement against a recorded baseline.

    Returns human-readable regression descriptions; an empty list means
    the baseline holds.  ``measured`` defaults to re-running the
    baseline's own configuration.  A 20% synthetic throughput drop or a
    20% synthetic p95-latency inflation fails at the default 15%
    tolerances — that is the guard's acceptance contract.
    """
    if not isinstance(baseline, dict) or baseline.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"not a baseline document (want schema {BASELINE_SCHEMA!r})"
        )
    if measured is None:
        measured = measure_bench(baseline["bench"], baseline["config"])
    regressions: List[str] = []
    base_det = baseline.get("deterministic", {})
    got_det = measured.get("deterministic", {})
    for name in sorted(base_det):
        expected = float(base_det[name])
        if name not in got_det:
            regressions.append(f"{name}: missing from measurement")
            continue
        actual = float(got_det[name])
        if _LATENCY_MARKER in name:
            limit = expected * (1.0 + latency_tolerance) + _LATENCY_SLACK_CYCLES
            if actual > limit:
                regressions.append(
                    f"{name}: p95 recovery latency {actual:g} cycles exceeds "
                    f"baseline {expected:g} (limit {limit:g})"
                )
        elif abs(actual - expected) > 1e-9:
            regressions.append(
                f"{name}: deterministic metric changed "
                f"{expected:g} -> {actual:g}"
            )
    for name in sorted(got_det):
        if name not in base_det:
            regressions.append(f"{name}: new metric absent from baseline")
    if not skip_wallclock:
        base_tp = float(baseline.get("wallclock", {}).get("points_per_s", 0.0))
        got_tp = float(measured.get("wallclock", {}).get("points_per_s", 0.0))
        if base_tp > 0 and got_tp < base_tp * (1.0 - throughput_tolerance):
            regressions.append(
                f"throughput: {got_tp:.2f} points/s is more than "
                f"{throughput_tolerance:.0%} below baseline {base_tp:.2f}"
            )
        got_speedup = measured.get("wallclock", {}).get("speedup")
        if got_speedup is not None and float(got_speedup) < _ENGINE_MIN_SPEEDUP:
            regressions.append(
                f"engine speedup: warm run only {float(got_speedup):.2f}x "
                f"faster than cold (floor {_ENGINE_MIN_SPEEDUP:g}x)"
            )
        got_kernel = measured.get("wallclock", {}).get("kernel_speedup")
        if got_kernel is not None and float(got_kernel) < _MEGASCALE_MIN_SPEEDUP:
            regressions.append(
                f"megascale speedup: vector kernel only {float(got_kernel):.2f}x "
                f"faster than the live network "
                f"(floor {_MEGASCALE_MIN_SPEEDUP:g}x)"
            )
    return regressions


def load_baseline(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate a ``BENCH_*.json`` baseline.

    Raises
    ------
    ValueError
        On unparseable JSON or a wrong schema tag (CLI exit code 2).
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: not a baseline document (want schema {BASELINE_SCHEMA!r})"
        )
    return doc


def write_baseline(baseline: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Canonical serialization: sorted keys, indent 2, trailing newline."""
    path = Path(path)
    path.write_text(json.dumps(baseline, sort_keys=True, indent=2) + "\n")
    return path
