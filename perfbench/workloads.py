"""The four benchmark workloads.

Each workload is a sequence of *rounds*.  Round ``r`` of seed ``s`` is a
pure function of ``(s, r)``: the harness runs rounds 0, 1, 2, ... until
its time budget is spent, so a longer run sees more distinct inputs,
never different ones.  A workload splits into

* ``setup()`` — module import and resident state, timed as ``setup_s``;
* ``inputs(seed, r)`` — the benchmark's own input generation (untimed);
* ``run(inputs, meter, recorder)`` — the timed calls into ``repro``,
  made with the entry points' default arguments so a later change of
  default (or a deleted backend) is measured without editing the
  benchmark.  With a ``meter`` it runs a host-speed probe between ops
  and records each op's start and end;
* ``check(inputs, result)`` — output checks, outside the timed phase;
* ``exact(result)`` — the simulated outputs, which repeat exactly for a
  seed and must not change when tracing is on.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from spans import Recorder
from timing import Meter


def round_seed(seed: int, r: int) -> int:
    """The seed of round ``r`` (distinct per round, within numpy's range)."""
    return (seed * 1_000_003 + 7_919 * r) % 2_147_483_647


def digest(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RoundResult:
    """What one round's timed phase produced."""

    ops: int
    seconds: float
    #: (start, end) of each timed section, for trace accounting.
    sections: List[Tuple[float, float]]
    #: (start, end) of each op, when the round ran with a meter.
    op_spans: List[Tuple[float, float]]
    #: Ops the simulated system refused or failed by design (blocked
    #: requests, lost trials, rejected requests) and ops that raised.
    refused: int
    outputs: Any
    extra: Dict[str, Any] = field(default_factory=dict)


class _OpTimer:
    """Times the ops a sweep entry point runs internally.

    ``run_fig3`` and ``run_faults`` take a whole sweep per call; their op
    (one trial) is a call to a public trial function, so the untraced
    run wraps just that one boundary, runs the meter's probe before each
    call, and keeps each call's span and result for the output checks.
    """

    def __init__(self, owner: Any, attr: str, meter: Optional[Meter]) -> None:
        self.owner = owner
        self.attr = attr
        self.meter = meter
        self.spans: List[Tuple[float, float]] = []
        self.results: List[Tuple[tuple, Any]] = []

    def __enter__(self) -> "_OpTimer":
        self.raw = vars(self.owner).get(self.attr)
        if self.raw is None or isinstance(self.raw, staticmethod):
            raise RuntimeError(f"op boundary {self.attr} is gone")
        original, meter = self.raw, self.meter
        spans, results = self.spans, self.results

        def timed(*args: Any, **kwargs: Any) -> Any:
            _probe(meter)
            start = time.perf_counter()
            result = original(*args, **kwargs)
            spans.append((start, time.perf_counter()))
            results.append((args, result))
            return result

        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc: Any) -> None:
        setattr(self.owner, self.attr, self.raw)


def _probe(meter: Optional[Meter]) -> None:
    if meter is not None:
        meter.probe()


# -- fig3-cold ---------------------------------------------------------------


class Fig3Cold:
    """Figure 3 over all 11 localities at N_object 256 and 1024, cold.

    Every ``run_fig3`` call builds a fresh engine, so each round pays the
    engine's cold path: request draws plus grant resolution.
    """

    name = "fig3-cold"
    #: (N_object, trials per locality) of one round.
    PLAN = ((256, 2), (1024, 1))
    #: Percentile reported as ``op_tail_us``: the highest that keeps ten
    #: samples beyond it in a run (about 300 trials); it falls among the
    #: N=1024 trials.
    TAIL = 95
    traced_rounds = 1

    def setup(self) -> None:
        import repro.engine  # noqa: F401

    def inputs(self, seed: int, r: int) -> Dict[str, Any]:
        return {"seed": round_seed(seed, r), "r": r}

    def run(self, inp: Dict[str, Any], meter: Optional[Meter] = None,
            recorder: Optional[Recorder] = None) -> RoundResult:
        from repro.engine import SweepEngine, run_fig3

        points: List[Any] = []
        sections = []
        timer = _OpTimer(SweepEngine, "run_csd_trial", meter) if recorder is None else None
        if timer is not None:
            timer.__enter__()
        try:
            for n, trials in self.PLAN:
                _probe(meter)
                start = time.perf_counter()
                series = run_fig3(
                    n_trials=trials, seed=inp["seed"], n_objects_list=(n,)
                )
                sections.append((start, time.perf_counter()))
                _probe(meter)
                points.extend(series[n])
        finally:
            if timer is not None:
                timer.__exit__()
        outputs = [
            [p.n_objects, p.locality_knob, p.used_channels,
             p.highest_channel, p.blocked, p.requests, p.realized_locality]
            for p in points
        ]
        ops = sum(11 * trials for _, trials in self.PLAN)
        trials_seen = timer.results if timer is not None else []
        return RoundResult(
            ops=ops,
            seconds=sum(b - a for a, b in sections),
            sections=sections,
            op_spans=timer.spans if meter is not None else [],
            refused=sum(1 for _, res in trials_seen if res.blocked),
            outputs=outputs,
            extra={"trials": trials_seen},
        )

    def check(self, inp: Dict[str, Any], result: RoundResult) -> List[str]:
        """Re-run a sample of the round's trials on the live simulator."""
        from repro.csd.simulator import CSDSimulator

        problems = []
        trials = result.extra["trials"]
        if len(trials) != result.ops:
            return [f"saw {len(trials)} trials, expected {result.ops}"]
        rng = random.Random(inp["seed"])
        small = [t for t in trials if t[0][1] == 256]
        sample = rng.sample(small, 2)
        if inp["r"] == 0:
            sample.append(rng.choice([t for t in trials if t[0][1] == 1024]))
        for args, res in sample:
            _, n, locality, trial_seed = args[:4]
            live = CSDSimulator(n).run_trial(locality, trial_seed=trial_seed)
            got = (res.used_channels, res.highest_channel, res.blocked)
            want = (live.used_channels, live.highest_channel, live.blocked)
            if got != want:
                problems.append(
                    f"trial n={n} loc={locality} seed={trial_seed}: "
                    f"engine {got} != live {want}"
                )
        return problems

    def exact(self, result: RoundResult) -> Dict[str, Any]:
        used = [row[2] for row in result.outputs]
        return {
            "sim_channels_used_mean": sum(used) / len(used),
            "digest": digest(result.outputs),
        }


# -- fault-campaign ----------------------------------------------------------


class FaultCampaign:
    """``run_faults`` at N_object 16 and 64, fault rates 0, 0.05 and 0.2,
    with the default CSD fault rate.

    A faulty N=64 trial costs about forty N=16 trials, so each size gets
    its own ``run_faults`` call and its own trial count: the cheap trials
    are numerous enough for steady latency percentiles, the costly ones
    still hold most of the time.
    """

    name = "fault-campaign"
    RATES = (0.0, 0.05, 0.2)
    #: (N_object, trials per rate) of one round.
    PLAN = ((16, 8), (64, 1))
    #: The faulty N=64 trials are the top 7% of ops; p95 is among them
    #: with about fifteen samples beyond it in a run.
    TAIL = 95
    traced_rounds = 1

    def setup(self) -> None:
        import repro.engine  # noqa: F401

    def inputs(self, seed: int, r: int) -> Dict[str, Any]:
        return {"seed": round_seed(seed, r), "r": r}

    def run(self, inp: Dict[str, Any], meter: Optional[Meter] = None,
            recorder: Optional[Recorder] = None) -> RoundResult:
        import repro.faults.campaign as campaign
        from repro.engine import run_faults

        reports = []
        sections = []
        timer = _OpTimer(campaign, "run_fault_trial", meter) if recorder is None else None
        if timer is not None:
            timer.__enter__()
        try:
            for n, trials in self.PLAN:
                _probe(meter)
                start = time.perf_counter()
                reports.append(run_faults(
                    list(self.RATES), n_objects_list=(n,),
                    n_trials=trials, seed=inp["seed"],
                ))
                sections.append((start, time.perf_counter()))
                _probe(meter)
        finally:
            if timer is not None:
                timer.__exit__()
        points = [p for report in reports for p in report["points"]]
        ops = sum(p["trials"] for p in points)
        lost = sum(round(p["trials"] * (1.0 - p["survival"])) for p in points)
        return RoundResult(
            ops=ops,
            seconds=sum(b - a for a, b in sections),
            sections=sections,
            op_spans=timer.spans if meter is not None else [],
            refused=lost,
            outputs=reports,
            extra={"trials": len(timer.results) if timer is not None else ops},
        )

    def check(self, inp: Dict[str, Any], result: RoundResult) -> List[str]:
        """Rate-0 points must equal the same-seed Figure 3 trials on the
        live simulator (the campaign module's documented identity)."""
        import numpy as np
        from repro.csd.simulator import CSDSimulator

        problems = []
        if result.extra["trials"] != result.ops:
            problems.append(
                f"saw {result.extra['trials']} trials, expected {result.ops}"
            )
        for report in result.outputs:
            for point in report["points"]:
                if point["rate"] != 0.0:
                    continue
                n = point["n_objects"]
                live = [
                    CSDSimulator(n).run_trial(
                        report["locality"], trial_seed=report["seed"] + 1000 * t
                    )
                    for t in range(report["trials"])
                ]
                want = {
                    "used_channels": int(round(np.mean([x.used_channels for x in live]))),
                    "highest_channel": int(round(np.mean([x.highest_channel for x in live]))),
                    "requests": live[0].requests,
                    "blocked": int(round(np.mean([x.blocked for x in live]))),
                    "realized_locality": float(np.mean([x.realized_locality for x in live])),
                }
                got = {key: point["csd"][key] for key in want}
                if got != want:
                    problems.append(f"rate-0 point n={n}: {got} != figure 3 {want}")
        return problems

    def exact(self, result: RoundResult) -> Dict[str, Any]:
        from repro.faults.campaign import report_json

        points = [p for report in result.outputs for p in report["points"]]
        return {
            "sim_recovery_p95_cycles": max(
                p["recovery_cycles"]["p95"] for p in points
            ),
            "faults.triggered": sum(
                p["counters"]["faults.triggered"] for p in points
            ),
            "faults.retries": sum(
                p["counters"]["faults.recovery.retries"] for p in points
            ),
            "digest": digest([report_json(r) for r in result.outputs]),
        }


# -- service-inproc ----------------------------------------------------------


class ServiceInproc:
    """The load generator's seeded scripts for 8 tenants on a 16x16 die,
    driven closed-loop through ``InProcessClient``: each tenant sends its
    next request only after the previous reply arrives.

    Each round is one load session on a fresh ``FabricService``, as
    ``repro.service.loadgen.run_load`` runs one.  Round 0 uses the
    service built in ``setup()``; later rounds build theirs before their
    timed section.
    """

    name = "service-inproc"
    TENANTS = 8
    REQUESTS = 500
    DIE = (16, 16)
    #: A request takes about 0.1 ms, a probe 0.2 ms: probe every eighth.
    PROBE_EVERY = 8
    #: A run holds about 100,000 requests, so ~1,000 lie beyond p99.
    TAIL = 99
    traced_rounds = 3
    #: The service ``setup()`` builds; round 0 takes it.
    resident: Any = None

    def _service(self) -> Any:
        from repro.service.fabric import ResidentFabric
        from repro.service.server import FabricService

        rows, cols = self.DIE
        return FabricService(ResidentFabric(rows, cols))

    def setup(self) -> None:
        self.resident = self._service()

    def inputs(self, seed: int, r: int) -> Dict[str, Any]:
        from repro.service.loadgen import LoadConfig, build_script

        rows, cols = self.DIE
        config = LoadConfig(
            tenants=self.TENANTS, requests=self.REQUESTS,
            seed=round_seed(seed, r), rows=rows, cols=cols,
        )
        scripts = [build_script(config, i) for i in range(config.tenants)]
        return {"config": config, "scripts": scripts, "r": r}

    def run(self, inp: Dict[str, Any], meter: Optional[Meter] = None,
            recorder: Optional[Recorder] = None) -> RoundResult:
        from repro.service.server import InProcessClient

        service, self.resident = self.resident or self._service(), None
        op_spans: List[Tuple[float, float]] = []

        async def tenant(script: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
            client = InProcessClient(service)
            responses = []
            try:
                for i, request in enumerate(script):
                    if recorder is not None:
                        recorder.op = (request["tenant"], request["seq"])
                    if i % self.PROBE_EVERY == 0:
                        _probe(meter)
                    t0 = time.perf_counter()
                    response = await client.request(request)
                    op_spans.append((t0, time.perf_counter()))
                    responses.append(response)
            finally:
                await client.close()
                if recorder is not None:
                    recorder.op = None
            return responses

        async def drive() -> List[Dict[str, Any]]:
            batches = await asyncio.gather(*(tenant(s) for s in inp["scripts"]))
            return [response for batch in batches for response in batch]

        _probe(meter)
        start = time.perf_counter()
        records = asyncio.run(drive())
        end = time.perf_counter()
        _probe(meter)
        return RoundResult(
            ops=len(records),
            seconds=end - start,
            sections=[(start, end)],
            op_spans=op_spans,
            refused=sum(1 for rec in records if not rec["ok"]),
            outputs=records,
            extra={"config": inp["config"], "service": service},
        )

    def check(self, inp: Dict[str, Any], result: RoundResult) -> List[str]:
        fabric = result.extra["service"].fabric
        problems = []
        if fabric.tenants:
            problems.append(f"tenants left resident: {sorted(fabric.tenants)}")
        if fabric.vlsi.processors:
            problems.append(f"{len(fabric.vlsi.processors)} processors left")
        if fabric.reserved_switch_count():
            problems.append(f"{fabric.reserved_switch_count()} switches reserved")
        expected = sum(len(s) for s in inp["scripts"])
        if result.ops != expected:
            problems.append(f"{result.ops} replies to {expected} requests")
        for rec in result.outputs:
            if rec["latency_cycles"] != rec["completion_cycle"] - rec["issue_cycle"]:
                problems.append(
                    f"{rec['tenant']}#{rec['seq']}: latency "
                    f"{rec['latency_cycles']} != completion - issue"
                )
        return problems

    def exact(self, result: RoundResult) -> Dict[str, Any]:
        from repro.service.loadgen import build_report

        report = build_report(result.extra["config"], result.outputs)
        return {
            "sim_latency_p99_cycles": report["latency_cycles"]["p99"],
            "sim_utilization": report["fabric"]["utilization"],
            "records_sha256": report["records_sha256"],
        }


# -- defrag-compact ----------------------------------------------------------


def movable(spec: List[tuple]) -> int:
    """Processors a layout leaves INACTIVE, which compaction may move."""
    kinds = [op[0] for op in spec]
    return kinds.count("create") - kinds.count("destroy") - kinds.count("activate")


def layout_spec(
    rng: random.Random, rows: int, cols: int, smallest: int, largest: int
) -> List[tuple]:
    """A fragmented layout as a list of chip operations: first-fit
    creates until the die is nearly full, random destroys, and some
    survivors pinned ACTIVE (compaction may not move them)."""
    ops: List[tuple] = []
    names: List[str] = []
    free = rows * cols
    while True:
        size = rng.randint(smallest, largest)
        if size > free:
            break
        name = f"p{len(names):03d}"
        names.append(name)
        ops.append(("create", name, size))
        free -= size
    survivors = []
    for name in names:
        if rng.random() < 0.4:
            ops.append(("destroy", name))
        else:
            survivors.append(name)
    for name in survivors:
        if rng.random() < 0.2:
            ops.append(("activate", name))
    return ops


def build_chip(rows: int, cols: int, spec: List[tuple]) -> Any:
    from repro.core.vlsi_processor import VLSIProcessor

    vlsi = VLSIProcessor(rows, cols, with_network=False)
    for op in spec:
        if op[0] == "create":
            vlsi.create_processor(op[1], n_clusters=op[2])
        elif op[0] == "destroy":
            vlsi.destroy_processor(op[1])
        else:
            vlsi.activate(op[1])
    return vlsi


def layout_problems(vlsi: Any) -> List[str]:
    """Regions disjoint and contiguous, owned as recorded, chained along
    their path, and no reservation flag left on any switch."""
    fabric = vlsi.fabric
    problems = []
    owned = 0
    for name, instance in vlsi.processors.items():
        path = instance.region.path
        owned += len(path)
        for a, b in zip(path, path[1:]):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                problems.append(f"{name}: step {a}->{b} not adjacent")
            elif not fabric.chain_switch(a, b).is_chained:
                problems.append(f"{name}: edge {a}-{b} not chained")
        for coord in path:
            if fabric.cluster(coord).owner != name:
                problems.append(f"{name}: cluster {coord} owned by "
                                f"{fabric.cluster(coord).owner!r}")
    held = sum(1 for c in fabric.linear_order() if fabric.cluster(c).owner is not None)
    if held != owned:
        problems.append(f"{held} clusters owned, regions cover {owned}")
    reserved = sum(1 for sw in fabric.all_switches() if sw.is_reserved)
    if reserved:
        problems.append(f"{reserved} switches left reserved")
    return problems


class DefragCompact:
    """Fragmented 8x8 and 16x16 layouts, each compacted by the legacy
    loop and by the minimal planner in its default mode."""

    name = "defrag-compact"
    #: (rows, cols, layouts per round, smallest and largest processor,
    #: fewest and most movable regions; a layout outside is redrawn).
    #: On 8x8, ``auto`` picks the exact search, which takes most of a
    #: minimal compaction there.  Its cost grows fast with the movable
    #: count: at 4-6 regions a compaction takes 3 ms at the median and
    #: 74 ms at most; at 8-11 a few searches exhaust the 50,000-node
    #: budget and take 3-4 s each, so a handful of layouts would set the
    #: run's throughput.  On 16x16, more than ``exact_limit`` (16) regions
    #: are movable, so ``auto`` picks greedy.
    DIES = ((8, 8, 24, 2, 6, 4, 6), (16, 16, 12, 1, 8, 17, 40))
    STRATEGIES = ("legacy", "minimal")
    #: A run holds about 2,000 ops.  Beyond p99 lie the ~20 costliest
    #: exact searches, which depend on which layouts a seed drew: over
    #: five seeds p99 spread 27-30% (quartile distance over median); over
    #: four seeds p95 ranged 10.9-13.6 ms and p90 7.2-7.6 ms.
    TAIL = 90
    traced_rounds = 6

    def setup(self) -> None:
        import repro.core.defrag  # noqa: F401
        import repro.planner  # noqa: F401

    def inputs(self, seed: int, r: int) -> Dict[str, Any]:
        rng = random.Random(round_seed(seed, r))
        layouts = []
        for rows, cols, count, smallest, largest, fewest, most in self.DIES:
            for i in range(count):
                spec = layout_spec(rng, rows, cols, smallest, largest)
                while not fewest <= movable(spec) <= most:
                    spec = layout_spec(rng, rows, cols, smallest, largest)
                layouts.append((f"{rows}x{cols}#{i}", rows, cols, spec))
        return {"layouts": layouts, "r": r}

    def run(self, inp: Dict[str, Any], meter: Optional[Meter] = None,
            recorder: Optional[Recorder] = None) -> RoundResult:
        from repro.core.defrag import Defragmenter
        from repro.planner import MinimalPlanner

        sections = []
        failures = 0
        outputs = []
        for label, rows, cols, spec in inp["layouts"]:
            for strategy in self.STRATEGIES:
                vlsi = build_chip(rows, cols, spec)
                if strategy == "legacy":
                    defrag = Defragmenter(vlsi)
                else:
                    defrag = Defragmenter(vlsi, planner=MinimalPlanner())
                if recorder is not None:
                    recorder.op = (label, strategy)
                error = None
                _probe(meter)
                start = time.perf_counter()
                try:
                    defrag.compact_until_stable()
                except Exception as exc:  # counted as a failed op, reported below
                    error = f"{type(exc).__name__}: {exc}"
                end = time.perf_counter()
                if recorder is not None:
                    recorder.op = None
                sections.append((start, end))
                failures += error is not None
                plan = defrag.last_plan
                outputs.append({
                    "layout": label,
                    "strategy": strategy,
                    "error": error,
                    "regions": {
                        name: [list(c) for c in inst.region.path]
                        for name, inst in sorted(vlsi.processors.items())
                    },
                    "cost": None if plan is None else plan.cost.total,
                    "naive_cost": None if plan is None else plan.naive_cost.total,
                    "problems": layout_problems(vlsi),
                })
        _probe(meter)
        return RoundResult(
            ops=len(outputs),
            seconds=sum(b - a for a, b in sections),
            sections=sections,
            op_spans=sections if meter is not None else [],
            refused=failures,
            outputs=outputs,
        )

    def check(self, inp: Dict[str, Any], result: RoundResult) -> List[str]:
        problems = []
        for out in result.outputs:
            where = f"{out['layout']}/{out['strategy']}"
            if out["error"] is not None:
                problems.append(f"{where}: raised {out['error']}")
            problems.extend(f"{where}: {p}" for p in out["problems"])
            if out["strategy"] == "minimal" and out["error"] is None:
                if out["cost"] is None:
                    problems.append(f"{where}: no plan recorded")
                elif out["cost"] > out["naive_cost"]:
                    problems.append(
                        f"{where}: minimal cost {out['cost']} > "
                        f"naive {out['naive_cost']}"
                    )
        return problems

    def exact(self, result: RoundResult) -> Dict[str, Any]:
        return {
            "sim_rewire_cost": sum(
                out["cost"] or 0 for out in result.outputs
                if out["strategy"] == "minimal"
            ),
            "digest": digest(
                [[o["layout"], o["strategy"], o["regions"]] for o in result.outputs]
            ),
        }


WORKLOADS = {
    w.name: w for w in (Fig3Cold(), FaultCampaign(), ServiceInproc(), DefragCompact())
}
