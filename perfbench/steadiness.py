"""Steadiness report: run the same code in two alternating sets and say
whether the sets agree within the benchmark's bounds.

    python3 perfbench/steadiness.py [--workloads W ...] [--seeds 1 2 ...]
                                    [--seconds S] [--json FILE]

Every run is ``run.py --trace 0`` in its own process, one at a time.
For seed ``i`` the sets run back to back, and which set goes first
alternates with ``i``, so drift in the machine's load falls on both.
For each metric the report prints each set's median and quartiles, the
quartile distance as a share of the median, and whether

* that spread stays within the metric's bound, and
* the second set's median is no worse than the first's by more than
  the bound.

The spread across seeds mixes differences between inputs with host
noise, so the report also prints, per metric, the quartiles of the
per-seed ratio set2 / set1: the same inputs run twice, which leaves the
host noise alone.

The ``sim_*`` metrics, ``failed_share`` and the sample counts are
exact simulated outputs (or counts of them); ``sim_*`` and
``failed_share`` must repeat exactly for each seed in both sets.  The
raw host timings (``raw_*``) and ``probe_us`` are printed for reference
only.  Exit status 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List

from timing import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: service-inproc's request latencies are its op latencies, bound alike.
REQUEST_ALIAS = {"request_p50_us": "op_p50_us", "request_p99_us": "op_tail_us"}


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("perfbench-detail "))
    result = json.loads(lines[-1])
    return {"detail": detail, "result": result}


def main(argv: List[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json", help="also write every run's values here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    everything: Dict[str, Any] = {}
    ok = True
    for workload in args.workloads:
        runs: List[List[Dict[str, Any]]] = [[], []]
        for i, seed in enumerate(args.seeds):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                runs[s].append(run_once(workload, seed, args.seconds))
                print(f"  {workload} seed {seed} set {s + 1} done",
                      file=sys.stderr, flush=True)
        everything[workload] = runs
        print(f"\n== {workload}: {len(args.seeds)} seeds x 2 sets, "
              f"{args.seconds:g} s runs")
        failed_runs = [
            (s + 1, r["detail"]["seed"]) for s, set_runs in enumerate(runs)
            for r in set_runs
            if not r["result"]["correct"] or r["result"]["failed"]
        ]
        if failed_runs:
            ok = False
            print(f"  runs with failed checks (set, seed): {failed_runs}")
        print(f"  {'metric':<24} {'unit':<8} {'bound':>6}"
              + "".join(f" | set{s} median      q1 .. q3          spread"
                        for s in (1, 2))
              + " | set2/set1 per seed: median  q1 .. q3 | verdict")
        for name in runs[0][0]["detail"]["metrics"]:
            unit = runs[0][0]["detail"]["metrics"][name]["unit"]
            sets = [[r["detail"]["metrics"][name]["value"] for r in set_runs]
                    for set_runs in runs]
            metric = bounds.get(REQUEST_ALIAS.get(name, name))
            exact = name.startswith("sim_") or name == "failed_share"
            kind = metric["bound"] if metric else ("exact" if exact else "-")
            line = f"  {name:<24} {unit:<8} {kind:>6}"
            for values in sets:
                st = spread(values)
                line += (f" | {st['median']:>12.6g} {st['q1']:>10.6g} .. "
                         f"{st['q3']:<10.6g} {st['iqr_share']:>7.2%}")
            ratios = [b / a for a, b in zip(*sets) if a]
            if len(ratios) >= 2:
                st = spread(ratios)
                line += (f" | {st['median']:>8.4f} {st['q1']:>8.4f} .. "
                         f"{st['q3']:<8.4f}")
            else:
                line += f" | {'-':>28}"
            verdict = []
            if metric is None:
                if exact and sets[1] != sets[0]:
                    verdict.append("MISMATCH across sets")
            else:
                for s, values in enumerate(sets):
                    if spread(values)["iqr_share"] > metric["bound"]:
                        verdict.append(f"set{s + 1} spread over bound")
                first, second = (spread(v)["median"] for v in sets)
                worse = (second - first) / first
                if metric["better"] == "higher":
                    worse = -worse
                if worse > metric["bound"]:
                    verdict.append(f"set2 worse by {worse:.1%}")
                else:
                    verdict.append(f"agree ({worse:+.1%})")
            ok = ok and not any("over" in v or "worse" in v or "MISMATCH" in v
                                for v in verdict)
            print(line + " | " + ", ".join(verdict or ["ok"]))
        outputs = [[json.dumps(r["detail"]["exact"], sort_keys=True)
                    for r in set_runs] for set_runs in runs]
        if outputs[1] != outputs[0]:
            ok = False
            print("  exact outputs differ between sets for the same seed")
        else:
            print("  exact outputs repeat for every seed in both sets")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(everything, fh, sort_keys=True)
    print("\nSTEADY" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
