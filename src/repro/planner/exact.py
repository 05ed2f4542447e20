"""Exact branch-and-bound search over single-relocation schedules.

For small chips (the ISSUE's ≤16-region regime) the greedy multi-pass
schedule is often wasteful: a processor that ripples forward twice pays
two rewirings where one direct hop would do, and sometimes moving *one*
processor into the head gap already coalesces the free space that the
greedy loop spends several moves achieving.

The search space: schedules in which each INACTIVE processor relocates
**at most once**, in some order, each landing on the earliest
currently-free serpentine run for its size (own clusters count as
vacatable).  Restricting targets to the earliest free run keeps every
schedule feasible by construction — the run is free at the moment the
move executes — while still containing the direct-hop schedules that
beat greedy.

A schedule is *accepted* when its final largest free run is at least as
long as the greedy fixpoint's, the final layout of the compaction
schedule it is handed (free-cluster count is move-invariant, so this is
exactly "fragmentation no worse than greedy").  Branch-and-bound
minimises delta rewiring cost over accepted schedules, seeded with the
greedy plan's cost so the result is greedy-or-better **always**; a node
budget bounds the worst case, falling back to the best schedule found
(ultimately the greedy one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.defrag import CompactionSchedule, earliest_free_run
from repro.planner.cost import delta_move
from repro.planner.plan import RegionMove, RewireCost, RewirePlan
from repro.topology.regions import Region

__all__ = ["ExactSearch", "search_exact"]

Coord = Tuple[int, int]


@dataclass(frozen=True)
class ExactSearch:
    """Outcome of one branch-and-bound run."""

    #: Best accepted schedule, or ``None`` when nothing beat the seed.
    moves: Optional[Tuple[RegionMove, ...]]
    cost: RewireCost
    nodes: int
    exhausted: bool


def _largest_run(order: Iterable[Coord], free: Set[Coord]) -> int:
    best = run = 0
    for coord in order:
        if coord in free:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best


def search_exact(
    schedule: CompactionSchedule,
    seed_cost: int,
    node_budget: int = 50_000,
) -> ExactSearch:
    """Branch-and-bound over single-relocation schedules.

    Parameters
    ----------
    schedule:
        The legacy compaction of the chip: its snapshot (fold order,
        pool, movable processors' starting regions) is the search's
        start, its final layout sets the quality floor.
    seed_cost:
        The greedy plan's delta cost; only strictly cheaper accepted
        schedules are reported.
    """
    order, pool, fold, layout = (
        schedule.order, schedule.pool, schedule.fold, schedule.start
    )
    quality_floor = _largest_run(
        order, pool.difference(*(r.path for r in schedule.final.values()))
    )
    names = sorted(layout, key=lambda n: fold[layout[n].path[0]])
    best_cost = seed_cost
    best_moves: Optional[Tuple[RegionMove, ...]] = None
    nodes = 0
    exhausted = False

    current: Dict[str, Region] = dict(layout)

    def free_now() -> Set[Coord]:
        occupied: Set[Coord] = set()
        for region in current.values():
            occupied.update(region.path)
        return {coord for coord in pool if coord not in occupied}

    def dfs(moved: Set[str], chosen: List[RegionMove], cost: int) -> None:
        nonlocal best_cost, best_moves, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if cost >= best_cost:
            return
        if _largest_run(order, free_now()) >= quality_floor:
            best_cost = cost
            best_moves = tuple(chosen)
            # keep searching siblings: a cheaper schedule may still exist
        for name in names:
            if name in moved:
                continue
            region = current[name]
            occupied: Set[Coord] = set()
            for other, other_region in current.items():
                if other != name:
                    occupied.update(other_region.path)
            target = earliest_free_run(order, pool, occupied, len(region))
            if target is None or target.path == region.path:
                continue
            if fold[target.path[0]] >= fold[region.path[0]]:
                continue
            move = delta_move(name, region, target)
            current[name] = target
            moved.add(name)
            chosen.append(move)
            dfs(moved, chosen, cost + move.cost.total)
            chosen.pop()
            moved.discard(name)
            current[name] = region

    dfs(set(), [], 0)
    if best_moves is None:
        return ExactSearch(None, RewireCost(), nodes, exhausted)
    total = RewireCost()
    for move in best_moves:
        total = total + move.cost
    return ExactSearch(best_moves, total, nodes, exhausted)


def exact_plan_meta(result: ExactSearch) -> Dict[str, int]:
    return {
        "exact_nodes": result.nodes,
        "exact_exhausted": int(result.exhausted),
        "exact_improved": int(result.moves is not None),
    }


def build_plan(
    moves: Tuple[RegionMove, ...],
    naive_total: RewireCost,
    mode: str,
    meta: Optional[Dict[str, int]] = None,
) -> RewirePlan:
    """Assemble a plan from delta-priced moves and a naive baseline."""
    total = RewireCost()
    for move in moves:
        total = total + move.cost
    return RewirePlan(
        moves=moves,
        cost=total,
        naive_cost=naive_total,
        mode=mode,
        meta=dict(meta or {}),
    )
