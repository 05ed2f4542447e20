"""The minimal-rewiring planner: compaction as directed-edge deltas.

Given the same compaction demand as the legacy loop, it produces a
:class:`RewirePlan` whose moves are priced as **directed-edge deltas**:
only the switches whose state actually differs between the old and new
assignment are written, and only the freshly-chained edges ship a
config-stream flit.  It never pays the legacy loop's put-back overhead
because planning is a pure function of the snapshot — nothing is
released just to widen a search.

Three modes:

* ``greedy`` — keep the legacy compaction schedule's moves
  (:func:`repro.core.defrag.simulate_compaction`, so the final layout is
  byte-identical to what ``compact_until_stable`` produces) but execute
  each move as a delta rewire.  Scales to any chip.
* ``exact``  — branch-and-bound over single-relocation schedules
  (:mod:`repro.planner.exact`), seeded with the greedy plan so the
  result is greedy-or-better always.  Exponential in the worst case,
  bounded by a node budget.
* ``auto``   — ``exact`` when at most ``exact_limit`` regions are
  movable (the ≤16-region regime), ``greedy`` beyond that.
"""

from __future__ import annotations

from repro.core.defrag import simulate_compaction
from repro.core.vlsi_processor import VLSIProcessor
from repro.errors import PlannerError
from repro.planner.cost import delta_move
from repro.planner.exact import build_plan, exact_plan_meta, search_exact
from repro.planner.naive import price_schedule
from repro.planner.plan import RewirePlan

__all__ = ["MinimalPlanner"]

MODES = ("auto", "greedy", "exact")


class MinimalPlanner:
    """Plans delta rewirings instead of release-then-reconfigure."""

    def __init__(
        self,
        mode: str = "auto",
        exact_limit: int = 16,
        node_budget: int = 50_000,
    ) -> None:
        if mode not in MODES:
            raise PlannerError(
                f"unknown planner mode {mode!r}; pick one of {MODES}"
            )
        self.mode = mode
        self.exact_limit = exact_limit
        self.node_budget = node_budget

    def plan_compaction(
        self, vlsi: VLSIProcessor, max_passes: int = 8
    ) -> RewirePlan:
        """Plan the compaction the legacy schedule describes, minimally."""
        schedule = simulate_compaction(vlsi, max_passes=max_passes)
        naive = price_schedule(schedule)
        greedy = build_plan(
            tuple(delta_move(v.name, v.old, v.new) for v in schedule.moves),
            naive.cost, "greedy",
            meta={
                "passes": schedule.passes,
                "putbacks_avoided": len(schedule.putbacks),
            },
        )
        if self.mode == "greedy" or (
            self.mode == "auto" and len(schedule.start) > self.exact_limit
        ):
            return greedy
        result = search_exact(
            schedule,
            seed_cost=greedy.cost.total,
            node_budget=self.node_budget,
        )
        meta = dict(greedy.meta)
        meta.update(exact_plan_meta(result))
        # when nothing beat the greedy seed, the greedy schedule *is* the
        # exact answer (or the budget ran out and greedy is the bound)
        moves = greedy.moves if result.moves is None else result.moves
        return build_plan(moves, naive.cost, "exact", meta=meta)
