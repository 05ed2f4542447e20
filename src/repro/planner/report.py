"""Canonical defrag reports behind the ``repro defrag`` CLI.

One report prices and executes a set of scenarios under one strategy
(``legacy`` or ``minimal``) and serialises the outcome in a canonical
shape: sorted keys, stable float derivations, a SHA-256 digest of the
final layout.  The legacy report runs the planner-less defragmenter
visit by visit and prices it with the naive plan; the minimal one
executes the minimal planner's delta moves.  The test suite pins both
reports' digests, so a change to the compaction schedule, its execution
or its pricing shows there.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

from repro.core.defrag import Defragmenter, MoveRecord
from repro.core.vlsi_processor import VLSIProcessor
from repro.errors import PlannerError
from repro.planner.minimal import MinimalPlanner
from repro.planner.naive import NaivePlanner
from repro.planner.plan import RewirePlan
from repro.planner.scenarios import SCENARIOS, build_scenario

__all__ = ["REPORT_SCHEMA", "PLAN_CHOICES", "defrag_report", "report_json"]

#: Version tag of the defrag-report format (bump on breaking change).
REPORT_SCHEMA = "repro.planner.report/1"

#: Execution strategies ``repro defrag --plan`` accepts.
PLAN_CHOICES = ("legacy", "minimal")


def layout_digest(vlsi: VLSIProcessor) -> str:
    """SHA-256 over the final placement (name, path, lifecycle state)."""
    doc = sorted(
        (
            instance.name,
            [list(coord) for coord in instance.region.path],
            instance.state.state.value,
        )
        for instance in vlsi.processors.values()
    )
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _run_scenario(
    name: str, plan: str, mode: str, max_passes: int
) -> Dict[str, Any]:
    vlsi = build_scenario(name)
    defrag = Defragmenter(vlsi)
    fragmentation_before = defrag.fragmentation()
    # the naive plan prices the legacy schedule from the initial
    # snapshot — it is the cost section of the legacy report, and the
    # baseline every other strategy's savings are measured against
    if plan == "legacy":
        ledger: RewirePlan = NaivePlanner().plan_compaction(
            vlsi, max_passes=max_passes
        )
        moves: List[MoveRecord] = defrag.compact_until_stable(
            max_passes=max_passes
        )
    elif plan == "minimal":
        defrag.planner = MinimalPlanner(mode=mode)
        moves = defrag.compact_until_stable(max_passes=max_passes)
        ledger = defrag.last_plan
    else:
        raise PlannerError(
            f"unknown plan strategy {plan!r}; pick one of {PLAN_CHOICES}"
        )
    entry = {
        "name": name,
        "description": SCENARIOS[name].description,
        "moves": [
            {
                "processor": m.name,
                "from": list(m.old_start),
                "to": list(m.new_start),
                "clusters": m.clusters,
            }
            for m in moves
        ],
        "fragmentation_before": fragmentation_before,
        "fragmentation_after": defrag.fragmentation(),
        "largest_free_run": vlsi.allocator.largest_free_run(),
        "layout_sha256": layout_digest(vlsi),
        "cost": ledger.summary(),
        "meta": dict(ledger.meta),
    }
    return entry


def defrag_report(
    scenarios: List[str],
    plan: str = "legacy",
    mode: str = "auto",
    max_passes: int = 8,
) -> Dict[str, Any]:
    """Execute every scenario under one strategy; canonical document."""
    entries = [
        _run_scenario(name, plan, mode, max_passes) for name in scenarios
    ]
    total = {
        "moves": sum(len(e["moves"]) for e in entries),
        "switch_writes": sum(e["cost"]["switch_writes"] for e in entries),
        "config_flits": sum(e["cost"]["config_flits"] for e in entries),
        "downtime_cycles": sum(
            e["cost"]["downtime_cycles"] for e in entries
        ),
        "naive_downtime_cycles": sum(
            e["cost"]["naive_downtime_cycles"] for e in entries
        ),
        "rewires_saved": sum(e["cost"]["rewires_saved"] for e in entries),
    }
    return {
        "schema": REPORT_SCHEMA,
        "max_passes": max_passes,
        "scenarios": entries,
        "total": total,
    }


def report_json(report: Dict[str, Any]) -> str:
    """Canonical serialization: sorted keys, indent 2, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
