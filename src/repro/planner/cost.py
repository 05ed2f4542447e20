"""The planner's cost model: switch writes and config-stream flits.

Regions are ordered paths and the stack-shift switches are
*unidirectional* (keyed by ``(src, dst)``), so a region's wiring is a
set of **directed** edges — reversing a path segment rewires it even
though the same switch pairs are touched.  Diffing two assignments
therefore compares directed edge sets:

* a directed edge in the old region but not the new one is **unchained**
  (direct clearing of active state — no worm flit, §3.3);
* a directed edge in the new region but not the old one is **chained**
  (one configuration-stream flit carries the instruction);
* every op stores to two programming registers — the bidirectional
  chain switch and the unidirectional shift switch.

The naive release-then-reconfigure path unchains *every* old edge and
chains *every* new edge regardless of overlap; the legacy compaction
schedule (:func:`repro.core.defrag.simulate_compaction`) additionally
pays a "put-back" (full release + re-configure in place) for each
visited processor it decides not to move.  Those are the costs
:func:`naive_move_cost` and :func:`putback_cost` account for;
:func:`delta_move` prices one relocation both ways.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.planner.plan import RegionMove, RewireCost, SwitchOp
from repro.topology.regions import Region

__all__ = [
    "directed_edges",
    "diff_regions",
    "ops_cost",
    "full_chain_ops",
    "full_unchain_ops",
    "naive_move_cost",
    "putback_cost",
    "delta_move",
]

Coord = Tuple[int, int]

#: Config-stream flits per chain instruction: the worm payload carries
#: exactly one ``("chain", a, b)`` flit per edge (wormhole._deliver_worm).
FLITS_PER_CHAIN = 1


def directed_edges(region: Region) -> List[Tuple[Coord, Coord]]:
    """The directed wiring of a region (:meth:`Region.edges`)."""
    return region.edges()


def diff_regions(old: Region, new: Region) -> Tuple[SwitchOp, ...]:
    """Minimal switch ops morphing ``old``'s wiring into ``new``'s.

    Unchains come first (freeing switches before re-purposing them),
    each group in path order — a deterministic, replayable sequence.
    """
    old_edges = directed_edges(old)
    new_edges = directed_edges(new)
    new_set = set(new_edges)
    old_set = set(old_edges)
    ops: List[SwitchOp] = [
        SwitchOp("unchain", a, b) for a, b in old_edges if (a, b) not in new_set
    ]
    ops.extend(
        SwitchOp("chain", a, b) for a, b in new_edges if (a, b) not in old_set
    )
    return tuple(ops)


def ops_cost(ops: Sequence[SwitchOp]) -> RewireCost:
    """Price a switch-op sequence: two writes per op, one flit per chain."""
    chains = sum(1 for op in ops if op.kind == "chain")
    return RewireCost(
        switch_writes=SwitchOp.WRITES * len(ops),
        config_flits=FLITS_PER_CHAIN * chains,
    )


def full_unchain_ops(region: Region) -> Tuple[SwitchOp, ...]:
    """What ``release(region)`` does: unchain every directed edge."""
    return tuple(SwitchOp("unchain", a, b) for a, b in directed_edges(region))


def full_chain_ops(region: Region) -> Tuple[SwitchOp, ...]:
    """What ``configure(region)`` does: chain every directed edge."""
    return tuple(SwitchOp("chain", a, b) for a, b in directed_edges(region))


def naive_move_cost(old: Region, new: Region) -> RewireCost:
    """Release-then-reconfigure price of moving ``old`` to ``new``:
    every old edge unchained, every new edge chained, overlap ignored."""
    return ops_cost(full_unchain_ops(old)) + ops_cost(full_chain_ops(new))


def putback_cost(region: Region) -> RewireCost:
    """What the legacy compaction pays to *visit without moving*: it
    releases the region to widen the search, finds nothing better, and
    configures the identical region straight back."""
    return naive_move_cost(region, region)


def delta_move(name: str, old: Region, new: Region) -> RegionMove:
    """``name``'s relocation ``old -> new`` as directed-edge delta ops,
    priced beside what release-then-reconfigure would pay for it."""
    ops = diff_regions(old, new)
    return RegionMove(
        name=name,
        old=old,
        new=new,
        ops=ops,
        cost=ops_cost(ops),
        naive_cost=naive_move_cost(old, new),
    )
