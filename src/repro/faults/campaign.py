"""Monte-Carlo fault campaign: sweep fault rate × N_object, measure survival.

Each campaign point runs ``n_trials`` independent trials.  A trial draws
its own fault universe (a fresh :class:`FaultPlan` seeded from the
campaign seed, the point, and the trial index — never from execution
order) and pushes one simulated chip through the three reconfiguration
protocols the faults can corrupt:

* **CSD datapath** (Figure 3 workload) — the request/grant/ack handshake
  under segment faults, with bounded retry; a request still blocked
  after the retries counts as blocked, exactly like the fault-free
  simulator counts saturation.
* **Wormhole reconfiguration** (section 3.3) — a scaling worm under
  switch/link/flit faults; retry on the abortable reserve→commit
  protocol, then degradation (quarantine the sticking cluster and
  re-place the processor) when retry exhausts, then the section-1 remap
  story (fail an owned cluster, re-create the processor elsewhere).
* **ChainedCSD crossing** (section 2.6.1) — cross-segment chainings
  under junction faults; a permanently sticking junction triggers the
  paper's re-split response (``split_at_junction``).

Every seed derives from ``(campaign seed, n_objects, rate, trial)``
alone, so a campaign point is the same wherever it runs:
:func:`run_campaign` is the serial live oracle, and
:func:`repro.engine.run_faults` (which the ``faults`` command runs, over
a process pool with ``--workers N``) reproduces its report bit for bit.
With ``rate=0`` the CSD aggregates are byte-identical to
:func:`repro.csd.simulator._sweep_point` for the same seed: the fault
layer is provably free when empty.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.errors import ReproError, RetryExhaustedError, TopologyError
from repro.csd.chained import ChainedCSD
from repro.csd.simulator import CSDSimulator
from repro.core.vlsi_processor import VLSIProcessor
from repro.faults.degrade import FaultAwareDefectInjector
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultKind, FaultPlan, junction_site
from repro.faults.recovery import (
    DEFAULT_POLICY,
    RECONFIG_RETRYABLE,
    RetryPolicy,
    chained_connect_with_retry,
    with_retry,
)
from repro.telemetry.observe import Sampler, point_label

__all__ = [
    "CAMPAIGN_SCHEMA",
    "run_fault_trial",
    "campaign_point",
    "run_campaign",
    "report_json",
]

#: Version tag of the campaign report format (bump on breaking change).
CAMPAIGN_SCHEMA = "repro.faults.campaign/1"

#: Counters whose per-point deltas go into the report.
_COUNTERS: Tuple[str, ...] = (
    "faults.triggered",
    "faults.healed",
    "faults.quarantined",
    "faults.recovery.retries",
    "faults.recovery.recovered",
    "faults.recovery.exhausted",
    "faults.degradations",
    "wormhole.aborts",
    "csd.connect.fault_drops",
    "chained.junction.faults",
    "noc.link_fault_stalls",
    "noc.corrupted_flits",
    "noc.purged_flits",
    "wormhole.switch_faults",
)

#: CSD workload knob shared by every trial (mid-sweep Figure 3 point).
_LOCALITY = 0.5

#: Fabric the reconfiguration phase scales processors onto.
_FABRIC = (4, 4)
_RECONFIG_CLUSTERS = 4


def _plan_seed(seed: int, n_objects: int, rate: float, trial: int) -> int:
    """The trial's fault-universe seed: pure in (campaign seed, point,
    trial index), so fault draws never depend on execution order or on
    which worker process ran the point."""
    return seed + 7919 * n_objects + 104729 * trial + int(round(rate * 1_000_000))


# -- the three per-trial phases ---------------------------------------------


def _reconfig_phase(
    injector: FaultInjector,
    policy: RetryPolicy,
    trial_seed: int,
    label: Optional[str] = None,
) -> Tuple[Dict[str, Any], FaultAwareDefectInjector]:
    """Scale one processor onto a faulty fabric: retry, then degrade,
    then exercise the section-1 defect-remap story on the survivor.

    With observation on (and a point ``label``), a sampler rides the
    router network recording per-router buffer depths, and the §3.4
    lifecycle census plus the §3.2 chain-switch settings are snapshot
    into heatmaps at the phase's two milestones (after placement, after
    the defect remap).  Heatmap cells are additive, so repeated trials
    at one point accumulate — the matrix reads as "across this point's
    trials, how often was this cell in this state"."""
    rows, cols = _FABRIC
    vlsi = VLSIProcessor(rows, cols)
    vlsi.configurator.faults = injector
    if vlsi.network is not None:
        vlsi.network.faults = injector
    degrader = FaultAwareDefectInjector(vlsi, faults=injector, seed=trial_seed)
    observer = telemetry.observer()
    observing = label is not None and observer.enabled
    if observing and vlsi.network is not None:
        sampler = Sampler(observer.effective_stride(4))
        sampler.attach_heatmap(
            telemetry.heatmap(f"noc.buffer_depth{label}"),
            vlsi.network.buffer_depths,
        )
        vlsi.network.sampler = sampler

    def milestone(index: int) -> None:
        if not observing:
            return
        census = telemetry.heatmap(f"faults.lifecycle{label}")
        for state, count in vlsi.lifecycle_census().items():
            census.add(state, index, count)
        switches = telemetry.heatmap(f"stopo.chain_switches{label}")
        for edge, value in vlsi.fabric.chain_switch_states().items():
            switches.add(edge, index, value)

    def create():
        return vlsi.create_processor("p0", n_clusters=_RECONFIG_CLUSTERS)

    retries_before = telemetry.counter("faults.recovery.retries").value
    outcome = "first_try"
    try:
        with_retry(
            create, policy=policy, retry_on=RECONFIG_RETRYABLE,
            what="reconfig p0",
        )
        if telemetry.counter("faults.recovery.retries").value > retries_before:
            outcome = "recovered"
    except RetryExhaustedError:
        # retry could not wait the fault out — degrade: quarantine the
        # head of the region the allocator keeps choosing, forcing the
        # next placement around it, and re-attempt once on what is left
        target = vlsi.allocator.find_serpentine(_RECONFIG_CLUSTERS)
        coord = target.path[0] if target is not None else (0, 0)
        degrader.quarantine_cluster(coord, remap=False)
        try:
            with_retry(
                create, policy=policy, retry_on=RECONFIG_RETRYABLE,
                what="reconfig p0 (degraded placement)",
            )
            outcome = "degraded"
        except (RetryExhaustedError, ReproError):
            outcome = "lost"
    milestone(0)

    remap_attempted = False
    remap_ok = False
    if outcome != "lost":
        # the paper's section-1 story: an owned cluster fails, the
        # processor is removed and re-created elsewhere if capacity allows
        victim = vlsi.processor("p0").region.path[0]
        remap_attempted = True
        _, defect = degrader.quarantine_cluster(victim, remap=True)
        remap_ok = bool(defect.remapped)
    milestone(1)

    stats = {
        "outcome": outcome,
        "remap_attempted": remap_attempted,
        "remap_ok": remap_ok,
    }
    return stats, degrader


def _chained_phase(
    injector: FaultInjector,
    n_objects: int,
    policy: RetryPolicy,
    degrader: FaultAwareDefectInjector,
    label: Optional[str] = None,
) -> Dict[str, int]:
    """Cross-segment chainings under junction faults; a permanently
    sticking junction gets the paper's re-split response.  With
    observation on, every crossing attempt snapshots the §2.6.1 junction
    chain states into a point-labelled heatmap (cycle = pair index)."""
    seg = max(2, n_objects // 4)
    chained = ChainedCSD([seg, seg, seg], faults=injector)
    observing = label is not None and telemetry.observer().enabled
    pairs = [
        ((0, 0), (2, seg - 1)),       # crosses both junctions
        ((0, seg - 1), (1, 0)),       # crosses junction 0
        ((1, seg // 2), (2, 0)),      # crosses junction 1
    ]
    connected = splits = lost = severed = 0
    for pair_index, (source, sink) in enumerate(pairs):
        try:
            chained_connect_with_retry(chained, source, sink, policy=policy)
            connected += 1
        except TopologyError:
            # the crossing needs a junction an earlier split opened —
            # the two halves are separate processors now, by design
            severed += 1
        except RetryExhaustedError:
            did_split = False
            for j in range(len(chained.segments) - 1):
                if chained.is_junction_chained(j) and injector.is_permanent(
                    FaultKind.SWITCH, junction_site(j)
                ):
                    degrader.split_at_junction(chained, j)
                    splits += 1
                    did_split = True
            if not did_split:
                lost += 1
        if observing:
            junctions = telemetry.heatmap(f"chained.junctions{label}")
            for j, state in enumerate(chained.junction_states()):
                junctions.add(f"j{j}", pair_index, state)
    return {
        "connected": connected,
        "splits": splits,
        "severed": severed,
        "lost": lost,
    }


def run_fault_trial(
    n_objects: int,
    rate: float,
    trial: int,
    seed: int,
    policy: RetryPolicy = DEFAULT_POLICY,
    locality: float = _LOCALITY,
    engine=None,
    csd_rate: Optional[float] = None,
) -> Dict[str, Any]:
    """One Monte-Carlo trial: fresh fault universe, all three phases.

    ``engine`` (a :class:`repro.engine.SweepEngine`) routes the CSD
    phase through the vector kernel; the engine itself guarantees the
    kernel only resolves a trial when that is byte-identical to the live
    run (fault-free CSD domain, no blocks under the retry policy).

    ``csd_rate`` overrides the CSD-segment fault rate while every other
    kind keeps ``rate`` — with ``csd_rate=0.0`` the datapath phase is
    provably fault-free and the engine's vector kernel stays
    byte-identical even at nonzero reconfiguration-fault rates.  Note
    the override is per *kind*, not per domain: chained-CSD junction
    legs draw segment faults of the same kind, so it moves with the
    override too.
    """
    plan_seed = _plan_seed(seed, n_objects, rate, trial)
    if csd_rate is None:
        plan = FaultPlan.uniform(plan_seed, rate)
    else:
        plan = FaultPlan(
            seed=plan_seed,
            default_rate=rate,
            rates={FaultKind.CSD_SEGMENT: float(csd_rate)},
        )
    injector = FaultInjector(plan)
    label = (
        point_label(n=n_objects, rate=rate)
        if telemetry.observer().enabled
        else None
    )
    # same trial-seed derivation as CSDSimulator.run_many, so the rate-0
    # campaign replays the Figure 3 sweep byte-for-byte
    if engine is not None:
        csd = engine.run_csd_trial(
            n_objects,
            locality,
            seed + 1000 * trial,
            faults=injector,
            retry_policy=policy,
        )
    else:
        csd = CSDSimulator(n_objects, seed=seed).run_trial(
            locality,
            trial_seed=seed + 1000 * trial,
            faults=injector,
            retry_policy=policy,
        )
    reconfig, degrader = _reconfig_phase(
        injector, policy, trial_seed=seed + 1000 * trial, label=label
    )
    chained = _chained_phase(injector, n_objects, policy, degrader, label=label)
    served = 1.0 - (csd.blocked / csd.requests if csd.requests else 0.0)
    survived = reconfig["outcome"] != "lost" and served >= 0.9
    deg_survived, deg_total = degrader.survival_summary()
    return {
        "csd": csd,
        "served_fraction": served,
        "reconfig": reconfig,
        "chained": chained,
        "degradations": deg_total,
        "degradations_survived": deg_survived,
        "fault_triggers": injector.total_triggers(),
        "survived": survived,
    }


# -- point aggregation ------------------------------------------------------


def _percentiles(values: Sequence[float]) -> Dict[str, float]:
    from repro.telemetry.metrics import Histogram

    h = Histogram("faults.recovery.cycles.point", values=list(values))
    return {
        "count": h.count,
        "p50": float(h.percentile(50)),
        "p95": float(h.percentile(95)),
        "p99": float(h.percentile(99)),
        "mean": float(np.mean(values)) if values else 0.0,
        "max": float(max(values)) if values else 0.0,
    }


def _aggregate_campaign_point(
    n_objects: int,
    rate: float,
    n_trials: int,
    locality: float,
    trials: List[Dict[str, Any]],
    deltas: Dict[str, float],
    recovery: Sequence[float],
) -> Dict[str, Any]:
    """Fold one point's trial dicts (plus its telemetry capture) into
    the report entry; the same trials in trial order always give
    bit-identical entries."""
    csd_trials = [t["csd"] for t in trials]
    outcomes = {
        key: sum(1 for t in trials if t["reconfig"]["outcome"] == key)
        for key in ("first_try", "recovered", "degraded", "lost")
    }
    return {
        "n_objects": n_objects,
        "rate": float(rate),
        "trials": n_trials,
        "locality": float(locality),
        # same aggregation formulas as simulator._sweep_point: at rate 0
        # these five fields are byte-identical to the Figure 3 sweep
        "csd": {
            "used_channels": int(round(np.mean([r.used_channels for r in csd_trials]))),
            "highest_channel": int(round(np.mean([r.highest_channel for r in csd_trials]))),
            "requests": csd_trials[0].requests,
            "blocked": int(round(np.mean([r.blocked for r in csd_trials]))),
            "realized_locality": float(np.mean([r.realized_locality for r in csd_trials])),
            "served_fraction": float(np.mean([t["served_fraction"] for t in trials])),
        },
        "reconfig": {
            **outcomes,
            "remap_attempted": sum(1 for t in trials if t["reconfig"]["remap_attempted"]),
            "remap_ok": sum(1 for t in trials if t["reconfig"]["remap_ok"]),
        },
        "chained": {
            key: sum(t["chained"][key] for t in trials)
            for key in ("connected", "splits", "severed", "lost")
        },
        "degradations": sum(t["degradations"] for t in trials),
        "degradations_survived": sum(t["degradations_survived"] for t in trials),
        "fault_triggers": sum(t["fault_triggers"] for t in trials),
        "counters": deltas,
        "recovery_cycles": _percentiles(recovery),
        "survival": float(np.mean([1.0 if t["survived"] else 0.0 for t in trials])),
    }


def campaign_point(
    n_objects: int,
    rate: float,
    n_trials: int,
    seed: int,
    policy: RetryPolicy = DEFAULT_POLICY,
    locality: float = _LOCALITY,
    engine=None,
    csd_rate: Optional[float] = None,
) -> Dict[str, Any]:
    """One averaged campaign point (the unit of parallel fan-out).

    The returned dict is JSON-safe (ints, floats, strings only — no
    process-dependent ids, no timestamps), which is what makes the
    serial and parallel reports byte-comparable.  Its ``counters`` are
    the campaign counters' deltas over the point's trials.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if not 0.0 <= rate <= 1.0:
        raise ValueError("fault rate must be in [0, 1]")
    counters_before = {name: telemetry.counter(name).value for name in _COUNTERS}
    recovery_hist = telemetry.histogram("faults.recovery.cycles")
    hist_before = len(recovery_hist.values)
    with telemetry.scope("faults.point"), telemetry.tracer().span(
        "faults.point", kind="campaign", n_objects=n_objects,
        rate=rate, trials=n_trials, seed=seed,
    ):
        trials = [
            run_fault_trial(
                n_objects, rate, t, seed, policy=policy, locality=locality,
                engine=engine, csd_rate=csd_rate,
            )
            for t in range(n_trials)
        ]
    deltas = {
        name: telemetry.counter(name).value - counters_before[name]
        for name in _COUNTERS
    }
    recovery = list(recovery_hist.values[hist_before:])
    point = _aggregate_campaign_point(
        n_objects, rate, n_trials, locality, trials, deltas, recovery
    )
    if telemetry.observer().enabled:
        label = point_label(n=n_objects, rate=rate)
        telemetry.gauge(f"faults.survival{label}").set(point["survival"])
        telemetry.gauge(f"faults.recovery_p95{label}").set(
            point["recovery_cycles"]["p95"]
        )
    return point


# -- campaign sweep -----------------------------------------------------------


def _check_campaign(
    rates: Sequence[float],
    n_objects_list: Sequence[int],
    csd_rate: Optional[float],
) -> None:
    """Reject an empty sweep, or a swept rate or ``csd_rate`` outside
    [0, 1] (NaN included), before any trial runs."""
    if not rates:
        raise ValueError("need at least one fault rate")
    if not n_objects_list:
        raise ValueError("need at least one array size")
    checked = list(rates) if csd_rate is None else [*rates, csd_rate]
    if any(not 0.0 <= r <= 1.0 for r in checked):
        raise ValueError("fault rate must be in [0, 1]")


def _campaign_report(
    points: List[Dict[str, Any]],
    rates: Sequence[float],
    n_objects_list: Sequence[int],
    n_trials: int,
    seed: int,
    policy: RetryPolicy,
    locality: float,
    csd_rate: Optional[float],
) -> Dict[str, Any]:
    """The campaign report around its points, for every sweep path."""
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


def run_campaign(
    rates: Sequence[float],
    n_objects_list: Sequence[int] = (16, 32, 64),
    n_trials: int = 8,
    seed: int = 42,
    policy: RetryPolicy = DEFAULT_POLICY,
    locality: float = _LOCALITY,
    csd_rate: Optional[float] = None,
) -> Dict[str, Any]:
    """The full sweep: one point per (rate, n_objects), rate-major order,
    run serially on the live simulators.

    This is the campaign's oracle; :func:`repro.engine.run_faults` runs
    the same sweep with its CSD phases on the vector kernel, optionally
    over a process pool, and writes a byte-identical report.

    ``csd_rate``, when given, pins the CSD-segment fault rate at that
    value across the whole sweep while ``rates`` continues to drive
    every other fault kind (see :func:`run_fault_trial`); the override
    is recorded in the report under ``"csd_rate"``.
    """
    _check_campaign(rates, n_objects_list, csd_rate)
    points = [
        campaign_point(
            n, r, n_trials, seed, policy=policy, locality=locality,
            csd_rate=csd_rate,
        )
        for r in rates
        for n in n_objects_list
    ]
    return _campaign_report(
        points, rates, n_objects_list, n_trials, seed, policy, locality,
        csd_rate,
    )


def report_json(report: Dict[str, Any]) -> str:
    """Canonical serialization: sorted keys, no process-dependent data —
    two reports from the same seed compare equal byte-for-byte."""
    return json.dumps(report, sort_keys=True, indent=2)
