"""The planner's cost model: switch writes and config-stream flits.

Regions are ordered paths and the stack-shift switches are
*unidirectional* (keyed by ``(src, dst)``), so a region's wiring is a
set of **directed** edges — reversing a path segment rewires it even
though the same switch pairs are touched.  A relocation is priced from
the directed-edge delta :func:`repro.topology.regions.edge_delta`
computes, the same delta :meth:`WormholeConfigurator.reconfigure`
applies:

* a directed edge in the old region but not the new one is **unchained**
  (direct clearing of active state — no worm flit, §3.3);
* a directed edge in the new region but not the old one is **chained**
  (one configuration-stream flit carries the instruction);
* every unchained or chained edge stores to two programming registers —
  the bidirectional chain switch and the unidirectional shift switch.

The naive release-then-reconfigure path unchains *every* old edge and
chains *every* new edge regardless of overlap, so its price needs only
the two regions' edge counts; the legacy compaction schedule
(:func:`repro.core.defrag.simulate_compaction`) additionally pays a
"put-back" (full release + re-configure in place) for each visited
processor it decides not to move.  Those are the costs
:func:`naive_move_cost` and :func:`putback_cost` account for;
:func:`delta_move` prices one relocation both ways.
"""

from __future__ import annotations

from repro.planner.plan import RegionMove, RewireCost
from repro.topology.regions import Region, edge_delta

__all__ = ["naive_move_cost", "putback_cost", "delta_move"]

#: Register writes per unchained or chained edge: one store to its
#: chain switch, one to its stack-shift switch (§3.2/3.3).
WRITES_PER_EDGE = 2

#: Config-stream flits per chain instruction: the worm payload carries
#: exactly one ``("chain", a, b)`` flit per edge (wormhole._deliver_worm).
FLITS_PER_CHAIN = 1


def _price(unchained: int, chained: int) -> RewireCost:
    """Unchaining ``unchained`` edges and chaining ``chained`` ones."""
    return RewireCost(
        switch_writes=WRITES_PER_EDGE * (unchained + chained),
        config_flits=FLITS_PER_CHAIN * chained,
    )


def _edge_count(region: Region) -> int:
    """``len(region.edges())`` without listing them: the consecutive
    path pairs, plus the ring-closing edge."""
    return len(region.path) - 1 + (1 if region.ring else 0)


def naive_move_cost(old: Region, new: Region) -> RewireCost:
    """Release-then-reconfigure price of moving ``old`` to ``new``:
    every old edge unchained, every new edge chained, overlap ignored."""
    return _price(_edge_count(old), _edge_count(new))


def putback_cost(region: Region) -> RewireCost:
    """What the legacy compaction pays to *visit without moving*: it
    releases the region to widen the search, finds nothing better, and
    configures the identical region straight back."""
    return naive_move_cost(region, region)


def delta_move(name: str, old: Region, new: Region) -> RegionMove:
    """``name``'s relocation ``old -> new`` priced as its directed-edge
    delta, beside what release-then-reconfigure would pay for it."""
    removed, added = edge_delta(old, new)
    return RegionMove(
        name=name,
        old=old,
        new=new,
        cost=_price(len(removed), len(added)),
        naive_cost=naive_move_cost(old, new),
    )
