"""The naive planner: price the legacy compaction exactly as it runs.

It prices the schedule :func:`repro.core.defrag.simulate_compaction`
computes — the one the planner-less ``Defragmenter`` executes — visit
for visit, at full release-then-reconfigure rates.  That includes the
schedule's put-backs: every visited processor that does **not** move is
still released (to widen the search) and configured straight back,
paying a full unchain + rechain of its own region.

``plan.cost == plan.naive_cost`` by definition; the plan exists so the
minimal planner has an honest baseline and the legacy ``repro defrag``
report a cost ledger.
"""

from __future__ import annotations

from repro.core.defrag import CompactionSchedule, simulate_compaction
from repro.core.vlsi_processor import VLSIProcessor
from repro.planner.cost import naive_move_cost, putback_cost
from repro.planner.plan import RegionMove, RewireCost, RewirePlan

__all__ = ["NaivePlanner", "price_schedule"]


def price_schedule(schedule: CompactionSchedule) -> RewirePlan:
    """Price every visit of a compaction schedule at
    release-then-reconfigure rates; put-backs are overhead, not moves."""
    moves = []
    overhead = RewireCost()
    for visit in schedule.visits:
        if not visit.moved:
            overhead = overhead + putback_cost(visit.old)
            continue
        cost = naive_move_cost(visit.old, visit.new)
        moves.append(RegionMove(visit.name, visit.old, visit.new, cost, cost))
    total = sum((move.cost for move in moves), overhead)
    return RewirePlan(
        moves=tuple(moves),
        cost=total,
        naive_cost=total,
        mode="naive",
        meta={
            "passes": schedule.passes,
            "putbacks": len(schedule.putbacks),
            "putback_switch_writes": overhead.switch_writes,
            "putback_config_flits": overhead.config_flits,
        },
    )


class NaivePlanner:
    """Plans compaction exactly as the legacy release-then-reconfigure
    path executes it.  Useful only as the cost baseline."""

    mode = "naive"

    def plan_compaction(
        self, vlsi: VLSIProcessor, max_passes: int = 8
    ) -> RewirePlan:
        return price_schedule(simulate_compaction(vlsi, max_passes=max_passes))
