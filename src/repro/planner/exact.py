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

The search state is fold-order bitmasks (bit ``i`` is ``order[i]``),
searched with :func:`repro.topology.folding.first_run` like the
compaction schedule and the allocator: a node's occupancy is one
integer, a child's candidate space is ``pool & ~(occ & ~own)``, and a
layout is accepted when the free space ``pool & ~occ`` holds a run as
long as the quality floor (the :func:`~repro.topology.folding.longest_run`
of the greedy fixpoint's free space).  A
processor moves at most once and always from its start region, so each
(processor, run start) pair is priced with :func:`delta_move` once per
search: a :class:`~repro.topology.regions.Region` is built per priced
move, never per node, and the chosen schedule returns those moves.  The
DFS order is fixed — names by the fold index of ``path[0]``, then
``nodes += 1``, the budget, ``cost >= best``, acceptance — so the node
count in ``meta.exact_nodes`` is a function of the snapshot alone;
``tests/planner/test_exact_oracle.py`` holds it, the moves and the cost
equal to a set-based reference search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.defrag import CompactionSchedule
from repro.planner.cost import delta_move
from repro.planner.plan import RegionMove, RewireCost, RewirePlan
from repro.topology.folding import first_run, fold_mask, longest_run
from repro.topology.regions import path_region

__all__ = ["ExactSearch", "search_exact"]


@dataclass(frozen=True)
class ExactSearch:
    """Outcome of one branch-and-bound run."""

    #: Best accepted schedule, or ``None`` when nothing beat the seed.
    moves: Optional[Tuple[RegionMove, ...]]
    cost: RewireCost
    nodes: int
    exhausted: bool


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
    order, fold, pool = schedule.order, schedule.fold, schedule.pool
    start = schedule.start
    names = sorted(start, key=lambda n: fold[start[n].path[0]])
    own = [fold_mask(fold, start[name].path) for name in names]
    sizes = [len(start[name]) for name in names]
    heads = [fold[start[name].path[0]] for name in names]
    quality_floor = longest_run(pool & ~fold_mask(
        fold, (c for r in schedule.final.values() for c in r.path)
    ))
    # (processor index, run start) -> its one relocation: a processor
    # moves at most once, always from its start region, so the move
    # costs the same wherever the search reaches it
    priced: Dict[Tuple[int, int], RegionMove] = {}
    best_cost = seed_cost
    best_moves: Optional[Tuple[RegionMove, ...]] = None
    nodes = 0
    exhausted = False

    def dfs(
        occ: int, moved: int, chosen: Tuple[RegionMove, ...], cost: int
    ) -> None:
        nonlocal best_cost, best_moves, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if cost >= best_cost:
            return
        if first_run(pool & ~occ, quality_floor) is not None:
            best_cost = cost
            best_moves = chosen
            # keep searching siblings: a cheaper schedule may still exist
        for j, name in enumerate(names):
            if moved >> j & 1:
                continue
            others = occ & ~own[j]
            at = first_run(pool & ~others, sizes[j])
            # only a run starting before the fold index of path[0] is a
            # move forward; that also rules out the region's own place
            if at is None or at >= heads[j]:
                continue
            move = priced.get((j, at))
            if move is None:
                move = priced[j, at] = delta_move(
                    name, start[name], path_region(order[at:at + sizes[j]])
                )
            dfs(
                others | ((1 << sizes[j]) - 1) << at, moved | 1 << j,
                chosen + (move,), cost + move.cost.total,
            )

    dfs(fold_mask(fold, (c for r in start.values() for c in r.path)), 0, (), 0)
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
