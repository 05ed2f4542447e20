"""Fabric defragmentation (paper section 5).

"[With a mesh,] a host system has to manage the placement, routing,
replacement, and defragmentation.  ...  The VLSI processor is
manageable."  — on the S-topology, defragmentation is just another
scaling operation: INACTIVE processors are re-configured onto the
earliest free serpentine run, compacting live regions toward the head
of the fold and coalescing free clusters into one contiguous tail.

Only INACTIVE processors move (their memory is open and nothing is
executing); ACTIVE/SLEEP processors are left in place, which bounds how
much compaction one pass can achieve — exactly the trade-off a real
system would face.  A ring (Figure 5) is not movable either: a fold run
is a straight chain, so moving a ring onto one would silently drop its
closing edge.  It stays in place like an ACTIVE processor.

The compaction policy is written once, as the pure schedule
:func:`simulate_compaction`: each pass visits the movable processors in
fold order of their first cluster, lets each search with its own
clusters counted as free, and moves it to the earliest free run if that
starts earlier — otherwise puts it back.  Passes repeat until one moves
nothing.  Free space is the fabric's fold-order free mask
(:meth:`STopology.free_mask <repro.topology.s_topology.STopology.free_mask>`)
and the run search is :func:`repro.topology.folding.first_run`, the one
search the allocator, the planners and the service use too.
:class:`Defragmenter` executes the schedule visit by visit; the planners
in :mod:`repro.planner` price it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.states import ProcessorState
from repro.core.vlsi_processor import VLSIProcessor
from repro.noc.wormhole import WORM_FAILURES
from repro.topology.folding import first_run, fold_mask
from repro.topology.regions import Region, path_region

__all__ = ["MoveRecord", "Visit", "CompactionSchedule", "Defragmenter",
           "relocate", "simulate_compaction"]

Coord = Tuple[int, int]


@dataclass(frozen=True)
class MoveRecord:
    """One processor relocation performed by a defrag pass."""

    name: str
    old_start: Tuple[int, int]
    new_start: Tuple[int, int]
    clusters: int


@dataclass(frozen=True)
class Visit:
    """One visit of the compaction schedule (pass numbers start at 1).

    A visit with ``new == old`` is a put-back: the processor was
    released to widen the search, found nothing earlier, and goes
    straight back where it was.
    """

    name: str
    pass_index: int
    old: Region
    new: Region

    @property
    def moved(self) -> bool:
        return self.new != self.old


@dataclass(frozen=True)
class CompactionSchedule:
    """The compaction of one chip snapshot, visit by visit."""

    visits: Tuple[Visit, ...]
    #: Passes run, including the final one that moves nothing (it still
    #: puts every processor back).
    passes: int
    #: name -> region after compaction settles.
    final: Dict[str, Region]
    #: The snapshot the schedule was computed from: the fold order, each
    #: coordinate's fold index (both the fabric's own), the fold-order
    #: bitmask of every cluster a movable processor may occupy (free
    #: clusters plus the movable processors' own), and the movable
    #: (INACTIVE, not ring) processors' regions.
    order: Tuple[Coord, ...]
    fold: Dict[Coord, int]
    pool: int
    start: Dict[str, Region]

    @property
    def moves(self) -> Tuple[Visit, ...]:
        return tuple(visit for visit in self.visits if visit.moved)

    @property
    def putbacks(self) -> Tuple[Visit, ...]:
        return tuple(visit for visit in self.visits if not visit.moved)


def simulate_compaction(
    vlsi: VLSIProcessor, max_passes: int = 8
) -> CompactionSchedule:
    """Compute the compaction of ``vlsi`` without touching the fabric."""
    fabric = vlsi.fabric
    order, fold = fabric.order, fabric.fold
    start = {
        name: instance.region
        for name, instance in vlsi.processors.items()
        if instance.state.state is ProcessorState.INACTIVE
        and not instance.region.ring
    }
    free_bits = pool = fabric.free_mask()
    own = {name: fold_mask(fold, region.path) for name, region in start.items()}
    for bits in own.values():
        pool |= bits
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
            size = len(old)
            free_bits |= own[name]
            at = first_run(free_bits, size)
            target = old
            if at is not None and at < fold[old.path[0]]:
                target = path_region(order[at:at + size])
                own[name] = ((1 << size) - 1) << at
            free_bits &= ~own[name]
            layout[name] = target
            visits.append(Visit(name, passes, old, target))
            moved = moved or target is not old
        if not moved:
            break
    return CompactionSchedule(
        tuple(visits), passes, layout, order, fold, pool, start
    )


def relocate(vlsi: VLSIProcessor, name: str, old: Region, new: Region) -> None:
    """Release ``name``'s region ``old`` and configure ``new`` in its place.

    A worm that fails mid-configure (an injected switch fault, a
    conflicting worm) is rolled back: ``old`` is configured straight
    back before the failure propagates, so no processor is ever left
    regionless — a put-back (``new == old``) included.  Mailbox contents
    move with the processor (spill/fill through the open memory blocks,
    §3.3).
    """
    vlsi.configurator.release(old, owner=name)
    try:
        vlsi.configurator.configure(new, owner=name)
    except WORM_FAILURES:
        vlsi.configurator.configure(old, owner=name)
        raise
    vlsi.processors[name].region = new


class Defragmenter:
    """Compacts INACTIVE processors along the fabric's fold order.

    Parameters
    ----------
    vlsi:
        The chip to compact.
    planner:
        Optional reconfiguration planner (e.g.
        :class:`repro.planner.MinimalPlanner`).  When set,
        :meth:`compact_until_stable` plans the whole compaction first and
        executes it as delta rewirings; when ``None`` (the default) the
        schedule runs as release-then-reconfigure, put-backs included.
    """

    def __init__(
        self, vlsi: VLSIProcessor, planner: Optional[Any] = None
    ) -> None:
        self.vlsi = vlsi
        self.planner = planner
        #: The :class:`repro.planner.RewirePlan` behind the most recent
        #: planned compaction (``None`` until one runs).
        self.last_plan: Optional[Any] = None

    # -- queries -----------------------------------------------------------

    def fragmentation(self) -> float:
        """1 − (largest free run / free clusters); 0 when free space is
        one contiguous run (or there is none)."""
        free = self.vlsi.allocator.free_count()
        if free == 0:
            return 0.0
        return 1.0 - self.vlsi.allocator.largest_free_run() / free

    # -- compaction ---------------------------------------------------------

    def compact_until_stable(self, max_passes: int = 8) -> List[MoveRecord]:
        """Compact until a pass moves nothing (or the pass budget ends).

        Without a planner, every visit of :func:`simulate_compaction`
        runs in order through :func:`relocate` — a put-back releases and
        re-configures the same region — so the configurator sees the
        release/configure sequence the schedule describes.  A visit that
        fails is rolled back and the failure propagates; earlier visits
        stay applied.

        With a ``planner`` attached, the whole compaction is planned
        against a snapshot first and executed as minimal delta rewirings
        (the plan lands in :attr:`last_plan`); the returned move records
        are shaped exactly like the schedule's.
        """
        if self.planner is not None:
            # imported here: repro.planner depends on this module, so a
            # top-level import would be circular
            from repro.planner.execute import execute_plan

            plan = self.planner.plan_compaction(
                self.vlsi, max_passes=max_passes
            )
            self.last_plan = plan
            return execute_plan(self.vlsi, plan)
        moves: List[MoveRecord] = []
        for visit in simulate_compaction(self.vlsi, max_passes).visits:
            relocate(self.vlsi, visit.name, visit.old, visit.new)
            if visit.moved:
                moves.append(MoveRecord(
                    visit.name, visit.old.path[0], visit.new.path[0],
                    len(visit.new),
                ))
        return moves
