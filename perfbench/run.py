"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: rounds of the workload
run until ``--seconds`` have passed, each followed by its output checks.
Host time is normalized by short probes run between ops
(``timing.Meter``); the raw host times are reported beside it.
``--trace 1`` runs a fixed number of rounds twice, untraced and then
with every layer boundary wrapped, and reports per-layer self times and
counts; its simulated outputs must equal the untraced ones.

Human-readable lines come first; the last line of standard output is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.  The
``perfbench-detail`` line before it carries every metric of the
workload, including the workload-specific ones, for the steadiness
report.  ``repro`` is imported from the ``src`` directory next to this
one and nowhere else; without it the run fails.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from timing import REFERENCE_PROBE_S, Meter, latency_summary, probe  # noqa: E402
from workloads import WORKLOADS, RoundResult  # noqa: E402

#: The untraced run measures at least this many rounds, whatever the
#: time budget; the exact outputs it reports come from the first one.
MIN_ROUNDS = 3
#: Set-up samples per run: this process plus SETUP_SAMPLES - 1 fresh
#: child processes, run one after another; ``setup_s`` is their median.
SETUP_SAMPLES = 9
#: Probes run before and after each set-up sample; their median on
#: each side normalizes it.
SETUP_PROBES = 9

#: Units of the end-to-end metrics: the bounded ones every workload
#: reports, the workload-specific ones, then the raw host timings and
#: the probe length they were normalized by (see README.md).
UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "peak_rss_mb": "MB",
    "op_p50_us": "us",
    "op_tail_us": "us",
    "failed_share": "ratio",
    "request_p50_us": "us",
    "request_p99_us": "us",
    "sim_channels_used_mean": "channels",
    "sim_recovery_p95_cycles": "cycles",
    "sim_latency_p99_cycles": "cycles",
    "sim_utilization": "ratio",
    "sim_rewire_cost": "writes+flits",
    "op_samples": "count",
    "op_beyond_tail": "count",
    "probe_us": "us",
    "raw_setup_s": "s",
    "raw_ops_per_s": "op/s",
    "raw_op_p50_us": "us",
    "raw_op_tail_us": "us",
}


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` or fail."""
    sys.path.insert(0, SRC)
    import repro

    where = os.path.abspath(repro.__file__)
    if not where.startswith(SRC + os.sep):
        raise SystemExit(f"repro came from {where}, not from {SRC}")


def setup_sample(workload: Any) -> Tuple[float, float]:
    """Raw and normalized seconds of import plus resident state; the
    normalizing probe length is the mean of the median probe before and
    the median probe after."""
    before = statistics.median(probe() for _ in range(SETUP_PROBES))
    start = time.perf_counter()
    import_repro()
    workload.setup()
    raw = time.perf_counter() - start
    after = statistics.median(probe() for _ in range(SETUP_PROBES))
    return raw, raw * REFERENCE_PROBE_S / ((before + after) / 2)


def child_setup_samples(name: str, count: int) -> List[Tuple[float, float]]:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw, normalized = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(raw), float(normalized)))
    return samples


def finish(workload: Any, inp: Dict[str, Any], result: RoundResult) -> Dict[str, Any]:
    """Check a round and keep its exact outputs; drop the bulky outputs
    so a long run does not hold every round's records."""
    done = {"result": result, "problems": workload.check(inp, result),
            "exact": workload.exact(result)}
    result.outputs = None
    result.extra = {}
    return done


def run_rounds(workload: Any, seed: int, first: Dict[str, Any], rounds: int,
               seconds: float) -> List[Dict[str, Any]]:
    """Run rounds 0, 1, ... (at least ``rounds``, then until ``seconds``
    of wall time have passed), each with a meter and followed by its
    checks.  Each round keeps its ops' raw and normalized seconds."""
    out = []
    begin = time.perf_counter()
    r = 0
    while r < rounds or time.perf_counter() - begin < seconds:
        inp = first if r == 0 else workload.inputs(seed, r)
        gc.collect()
        meter = Meter()
        result: RoundResult = workload.run(inp, meter=meter)
        ops = [meter.busy(lo, hi) for lo, hi in result.op_spans]
        busy = [meter.busy(lo, hi) for lo, hi in result.sections]
        done = finish(workload, inp, result)
        done.update(
            raw_s=sum(b[0] for b in busy),
            normalized_s=sum(b[1] for b in busy),
            raw_ops=[o[0] for o in ops],
            normalized_ops=[o[1] for o in ops],
            probe_s=meter.mean_probe(),
            # peak memory after the same fixed work on every run
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        out.append(done)
        r += 1
    return out


def end_to_end(workload: Any, rounds: List[Dict[str, Any]],
               setup: List[Tuple[float, float]]) -> Dict[str, float]:
    """Throughput over all rounds, and latency percentiles over every op
    of every round pooled; normalized by the probes, and raw."""
    ops = sum(r["result"].ops for r in rounds)
    lat = latency_summary([x for r in rounds for x in r["normalized_ops"]],
                          workload.TAIL)
    raw_lat = latency_summary([x for r in rounds for x in r["raw_ops"]],
                              workload.TAIL)
    # exact shares come from the rounds every run executes
    fixed = rounds[:MIN_ROUNDS]
    refused = sum(r["result"].refused + len(r["problems"]) for r in fixed)
    metrics = {
        "setup_s": statistics.median(n for _, n in setup),
        "ops_per_s": ops / sum(r["normalized_s"] for r in rounds),
        "peak_rss_mb": rounds[MIN_ROUNDS - 1]["rss_mb"],
        "op_p50_us": lat["p50"] * 1e6,
        "op_tail_us": lat["tail"] * 1e6,
        "failed_share": refused / sum(r["result"].ops for r in fixed),
    }
    if workload.name == "service-inproc":
        metrics["request_p50_us"] = metrics["op_p50_us"]
        metrics["request_p99_us"] = metrics["op_tail_us"]
    for key, value in rounds[0]["exact"].items():
        if key.startswith("sim_"):
            metrics[key] = value
    metrics.update({
        "op_samples": lat["count"],
        "op_beyond_tail": lat["beyond_tail"],
        "probe_us": statistics.median(r["probe_s"] for r in rounds) * 1e6,
        "raw_setup_s": statistics.median(raw for raw, _ in setup),
        "raw_ops_per_s": ops / sum(r["raw_s"] for r in rounds),
        "raw_op_p50_us": raw_lat["p50"] * 1e6,
        "raw_op_tail_us": raw_lat["tail"] * 1e6,
    })
    return metrics


def traced(workload: Any, seed: int, first: Dict[str, Any]) -> Dict[str, Any]:
    """Untraced then traced pass over the same fixed rounds."""
    import layers
    from spans import Recorder, self_times, unattributed, within

    inputs = [first] + [
        workload.inputs(seed, r) for r in range(1, workload.traced_rounds)
    ]
    plain = []
    for inp in inputs:
        gc.collect()
        plain.append(finish(workload, inp, workload.run(inp)))
    rec = Recorder()
    collect = layers.install(rec)
    try:
        traced_rounds = []
        for inp in inputs:
            gc.collect()
            result = workload.run(inp, recorder=rec)
            collect()
            traced_rounds.append({"result": result, "exact": workload.exact(result)})
            result.outputs = None
            result.extra = {}
    finally:
        rec.unpatch()
    problems = [p for r in plain for p in r["problems"]]
    for index, (a, b) in enumerate(zip(plain, traced_rounds)):
        if a["exact"] != b["exact"]:
            problems.append(f"round {index}: traced outputs {b['exact']} "
                            f"!= untraced {a['exact']}")
    sections = [s for r in traced_rounds for s in r["result"].sections]
    spans = within(rec.finished(), sections)
    traced_s = sum(r["result"].seconds for r in traced_rounds)
    untraced_s = sum(r["result"].seconds for r in plain)
    loose = sum(unattributed(spans, lo, hi) for lo, hi in sections)
    attributed = sum(self_times(spans).values())
    if abs(attributed + loose - traced_s) > 1e-6 * max(1.0, traced_s):
        problems.append(f"self times {attributed} + unattributed {loose} "
                        f"!= traced phase {traced_s}")
    # counts the program reports itself (the campaign's fault counters)
    for r in traced_rounds:
        for key, value in r["exact"].items():
            if key in layers.METRICS:
                rec.count(key, value)
    metrics = layers.per_layer(rec.counts, spans, traced_s, untraced_s, loose)
    path = write_spans(workload.name, seed, spans)
    return {
        "metrics": metrics,
        "problems": problems,
        "attempted": sum(r["result"].ops for r in traced_rounds),
        "spans": len(spans),
        "spans_path": path,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "exact": plain[0]["exact"],
    }


def write_spans(name: str, seed: int, spans: List[Any]) -> str:
    """Spans as gzipped JSON lines: name, start, end (seconds from the
    first span), parent index, op id."""
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl.gz")
    origin = spans[0][1] if spans else 0.0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for span_name, start, end, parent, op in spans:
            fh.write(json.dumps([span_name, round(start - origin, 9),
                                 round(end - origin, 9), parent, op],
                                default=str))
            fh.write("\n")
    return os.path.relpath(path, ROOT)


def unit_of(name: str) -> str:
    import layers

    return UNITS.get(name) or layers.METRICS[name]


def contract_metrics() -> Dict[str, List[str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print("%.9f %.9f" % setup_sample(workload))
        return 0
    wanted = contract_metrics()

    setup = [setup_sample(workload)]
    gen_start = time.perf_counter()
    first = workload.inputs(args.seed, 0)
    gen_s = time.perf_counter() - gen_start

    if args.trace:
        out = traced(workload, args.seed, first)
        detail = out["metrics"]
        names = wanted["per_layer"]
        problems = out["problems"]
        attempted = out["attempted"]
        print(f"workload {workload.name} seed {args.seed} traced: "
              f"{workload.traced_rounds} rounds, {attempted} ops, "
              f"{out['spans']} spans -> {out['spans_path']}")
        print(f"  untraced {out['untraced_s']:.4f} s, traced {out['traced_s']:.4f} s")
        exact = out["exact"]
    else:
        rounds = run_rounds(workload, args.seed, first, MIN_ROUNDS, args.seconds)
        setup += child_setup_samples(workload.name, SETUP_SAMPLES - 1)
        detail = end_to_end(workload, rounds, setup)
        names = wanted["end_to_end"]
        problems = [p for r in rounds for p in r["problems"]]
        attempted = sum(r["result"].ops for r in rounds)
        print(f"workload {workload.name} seed {args.seed}: {len(rounds)} rounds, "
              f"{attempted} ops, inputs {gen_s:.4f} s (not in setup_s)")
        print("  setup samples (raw/normalized s) "
              + ", ".join(f"{raw:.4f}/{n:.4f}" for raw, n in setup))
        print(f"  op latency: {detail['op_samples']} samples pooled over the "
              f"rounds; op_tail_us is p{workload.TAIL:g}, "
              f"{detail['op_beyond_tail']} samples beyond it")
        exact = rounds[0]["exact"]
    for name, value in detail.items():
        print(f"  {name:<28} {value:>16.6f} {unit_of(name)}")
    print(f"  exact outputs of round 0: {json.dumps(exact, sort_keys=True)}")
    print(f"  output checks: {len(problems)} problems")
    for problem in problems[:20]:
        print(f"    {problem}")
    print("perfbench-detail " + json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in detail.items()},
        "exact": exact, "problems": problems,
    }, sort_keys=True, default=str))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "metrics": {
            name: {"value": detail[name], "unit": unit_of(name)} for name in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
