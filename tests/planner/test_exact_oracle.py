"""Lockstep oracle for the bitmask compaction schedule and exact search.

``repro.core.defrag.simulate_compaction`` and
``repro.planner.exact.search_exact`` hold cluster sets as fold-order
bitmasks.  The set-based implementations below are the reference: on
every drawn chip the schedule must match field for field, and the
search must return the same moves, cost, node count and exhaustion —
node counts reach the ``repro defrag`` reports, so they may not drift.
A count guard then pins what the bitmask search saves: Regions are
built per priced (processor, start) pair, not per node.
"""

from dataclasses import fields
from typing import Container, Dict, Iterable, List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import defrag
from repro.core.defrag import CompactionSchedule, Visit
from repro.core.states import ProcessorState
from repro.core.vlsi_processor import VLSIProcessor
from repro.errors import RegionError
from repro.planner import exact
from repro.planner.cost import delta_move
from repro.planner.exact import ExactSearch
from repro.planner.plan import RegionMove, RewireCost
from repro.topology.regions import Region, path_region
from repro.topology.rings import ring_region

Coord = Tuple[int, int]

BUDGETS = (1, 2, 3, 10, 100, 50_000)
#: Above this many movable regions the set-based search is too slow for
#: tier-1 at a 50,000-node budget; the schedule is still compared.
SEARCH_LIMIT = 9


# -- set-based reference ------------------------------------------------------


def earliest_free_run(
    order: Iterable[Coord],
    pool: Container[Coord],
    occupied: Container[Coord],
    n: int,
) -> Optional[Region]:
    """First contiguous fold-order run of ``n`` coordinates that are in
    ``pool`` and not in ``occupied`` — the set-based twin of
    :meth:`ClusterAllocator.find_serpentine`."""
    run: List[Coord] = []
    for coord in order:
        if coord in pool and coord not in occupied:
            run.append(coord)
            if len(run) == n:
                return path_region(run)
        else:
            run = []
    return None


def simulate_compaction(
    vlsi: VLSIProcessor, max_passes: int = 8
) -> CompactionSchedule:
    """Compute the compaction of ``vlsi`` without touching the fabric."""
    fabric = vlsi.fabric
    order = tuple(fabric.linear_order())
    fold = {coord: index for index, coord in enumerate(order)}
    start = {
        name: instance.region
        for name, instance in vlsi.processors.items()
        if instance.state.state is ProcessorState.INACTIVE
        and not instance.region.ring
    }
    free = {coord for coord in order if fabric.cluster(coord).is_free}
    pool = free.union(*(region.path for region in start.values()))
    layout = dict(start)
    visits: List[Visit] = []
    passes = 0
    while passes < max_passes:
        passes += 1
        moved = False
        # only the visited processor moves, so the unvisited ones keep
        # their fold keys: one sort per pass is the same order as taking
        # the minimum *current* key before every visit
        for name in sorted(layout, key=lambda p: fold[layout[p].path[0]]):
            old = layout[name]
            free.update(old.path)
            target = earliest_free_run(order, free, (), len(old))
            if target is None or fold[target.path[0]] >= fold[old.path[0]]:
                target = old
            free.difference_update(target.path)
            layout[name] = target
            visits.append(Visit(name, passes, old, target))
            moved = moved or target is not old
        if not moved:
            break
    return CompactionSchedule(
        tuple(visits), passes, layout, order, fold,
        sum(1 << fold[coord] for coord in pool), start,
    )


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
    order, fold, layout = schedule.order, schedule.fold, schedule.start
    pool = {coord for coord in order if schedule.pool >> fold[coord] & 1}
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


# -- drawn chips ----------------------------------------------------------------


@st.composite
def chip_specs(draw):
    """A die of 1x1 to 8x8, optionally one 2x2 ring placed first, then up
    to 14 first-fit creates of 1-6 clusters, each kept, destroyed or
    activated once all are placed."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    ring = None
    if rows >= 2 and cols >= 2 and draw(st.booleans()):
        ring = (draw(st.integers(0, rows - 2)), draw(st.integers(0, cols - 2)))
    creates = draw(st.lists(
        st.tuples(
            st.integers(1, 6),
            st.sampled_from(("keep", "destroy", "activate")),
        ),
        max_size=14,
    ))
    return rows, cols, ring, creates


def build_chip(rows, cols, ring, creates):
    chip = VLSIProcessor(rows, cols, with_network=False)
    if ring is not None:
        chip.create_processor("ring", region=ring_region(ring, 2, 2))
    fates = []
    for i, (size, fate) in enumerate(creates):
        try:
            chip.create_processor(f"p{i}", n_clusters=size)
        except RegionError:
            continue
        fates.append((f"p{i}", fate))
    for name, fate in fates:
        if fate == "destroy":
            chip.destroy_processor(name)
        elif fate == "activate":
            chip.activate(name)
    return chip


def greedy_cost(schedule):
    """The seed ``MinimalPlanner.plan_compaction`` hands the search."""
    return sum(
        delta_move(v.name, v.old, v.new).cost.total for v in schedule.moves
    )


@given(spec=chip_specs(), budget=st.sampled_from(BUDGETS))
@settings(max_examples=150, deadline=None)
def test_bitmask_schedule_and_search_match_the_set_based_reference(
    spec, budget
):
    chip = build_chip(*spec)
    got = defrag.simulate_compaction(chip)
    want = simulate_compaction(chip)
    for field in fields(CompactionSchedule):
        assert getattr(got, field.name) == getattr(want, field.name), field.name
    if len(want.start) <= SEARCH_LIMIT:
        seed = greedy_cost(want)
        assert exact.search_exact(got, seed, budget) == search_exact(
            want, seed, budget
        )


# -- count guard ----------------------------------------------------------------


def test_regions_are_built_per_priced_move_not_per_node(monkeypatch):
    # six movable regions on 8x8; the set-based search builds 734
    # Regions here, one per child of every node
    chip = VLSIProcessor(8, 8, with_network=False)
    sizes = [2, 3, 5, 6, 3, 3, 5, 6, 2, 2, 3, 5, 6, 3, 2, 5]
    for i, size in enumerate(sizes):
        chip.create_processor(f"p{i:03d}", n_clusters=size)
    for i in (0, 2, 3, 7, 8, 10, 13, 14):
        chip.destroy_processor(f"p{i:03d}")
    for i in (4, 9):
        chip.activate(f"p{i:03d}")
    schedule = defrag.simulate_compaction(chip)
    assert len(schedule.start) == 6
    seed = greedy_cost(schedule)

    built = []
    post_init = Region.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Region, "__post_init__", counting)
    result = exact.search_exact(schedule, seed)
    monkeypatch.undo()

    assert result.nodes == 645
    assert len(result.moves) == 3
    limit = len(schedule.start) * len(schedule.order) + len(result.moves)
    assert len(built) <= limit == 387
