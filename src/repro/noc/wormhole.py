"""Wormhole reconfiguration of the S-topology (paper section 3.3).

"The scaling is done by programming the switches through wormhole
routing using on-chip routers ... Wormhole routing is used to store a
reservation flag at each programmable switch to avoid a resource
(cluster) allocation conflict among the scaling configurations."

A scaling operation rewires one processor from an old region to a new
one and is two-phase, exactly like the worm:

1. **Reserve** — the worm's head crawls the added part of the new
   region, checking every added cluster and planting the reservation
   flag on every chain switch it will program.  Hitting a flag or
   cluster owned by another in-flight operation aborts the worm, which
   retreats and releases everything it had taken.
2. **Commit** — ownership of the added clusters transfers to the
   processor, the edges the old region loses are unchained, the
   configuration data in the worm's body chains the added edges, the
   reservation flags clear and the dropped clusters go free.  A failed
   commit rolls the fabric back to the old region (no partial
   configurations survive).

Configuring a processor is rewiring it from no region at all.
Down-scaling is the reverse: unchain and free, no reservation needed
("the down-scale ... is possible ... by clearing active state").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.errors import (
    AllocationConflictError,
    DefectError,
    FaultInjectionError,
    RegionError,
    SimulationError,
)
from repro.noc.flit import make_packet
from repro.noc.network import RouterNetwork
from repro.noc.routing_algos import xy_path
from repro.topology.regions import Region, edge_delta
from repro.topology.s_topology import STopology
from repro.topology.switches import BidirectionalSwitch, SwitchState

__all__ = ["ScalingOperation", "WormholeConfigurator", "WORM_FAILURES"]

Coord = Tuple[int, int]
Edge = Tuple[Coord, Coord]

#: The exceptions a scaling worm can *legitimately* die of — conflicts,
#: defects, bad regions, injected faults, transport no-progress.  The
#: abort/rollback handlers catch exactly these; anything else (an
#: ``AttributeError`` in a probe, say) is a genuine software defect and
#: must propagate instead of being counted as an aborted attempt.
WORM_FAILURES = (
    AllocationConflictError,
    DefectError,
    FaultInjectionError,
    RegionError,
    SimulationError,
)


@dataclass(frozen=True)
class ScalingOperation:
    """Record of one completed scaling (configuration) worm."""

    op_id: int
    owner: Hashable
    region: Region
    #: Router cycles spent delivering the configuration worm (0 when the
    #: operation ran without a router network attached).
    config_cycles: int
    #: Switches programmed (chained) by the commit phase.
    switches_programmed: int


class WormholeConfigurator:
    """Programs regions onto an :class:`STopology` with worm semantics.

    Parameters
    ----------
    fabric:
        The S-topology being (re)configured.
    network:
        Optional cycle-level router network.  When given, each scaling
        operation also sends a real configuration worm (one flit per
        switch to program) from ``origin`` to the region's first cluster
        and reports the measured delivery latency.
    origin:
        Where configuration worms start — the supervising processor's
        position (Figure 7(c) shows a preceding processor configuring its
        successors).
    """

    def __init__(
        self,
        fabric: STopology,
        network: Optional[RouterNetwork] = None,
        origin: Coord = (0, 0),
        faults=None,
    ) -> None:
        self.fabric = fabric
        self.network = network
        self.origin = origin
        #: Optional :class:`repro.faults.FaultInjector`: a faulty chain
        #: switch silently ignores its programming instruction, which the
        #: commit's count of applied instructions turns into an
        #: abort-and-retreat.
        self.faults = faults
        # per-configurator, not module-global: op and packet ids would
        # otherwise depend on import-time history and leak into trace
        # attributes, breaking cross-run and serial-vs-parallel identity
        self._op_ids = itertools.count()
        self._packet_ids = itertools.count()

    # -- up-scaling and delta rewiring ---------------------------------------

    def configure(self, region: Region, owner: Hashable) -> ScalingOperation:
        """Run a full reserve→commit scaling worm for ``region``: the
        rewiring of ``owner`` from no region at all (see :meth:`_rewire`).

        Raises
        ------
        AllocationConflictError
            If another in-flight worm holds any needed switch/cluster
            (everything this worm took is rolled back first).
        DefectError
            If the region includes a defective cluster.
        RegionError
            If the region path leaves the fabric.
        """
        return self._rewire(None, region, owner)

    def reconfigure(
        self, old: Region, new: Region, owner: Hashable
    ) -> ScalingOperation:
        """Morph ``owner``'s region from ``old`` to ``new`` as a delta.

        Unlike release-then-:meth:`configure`, only the *difference* is
        touched: directed edges leaving the assignment are unchained
        (direct clearing, §3.3 — no worm flits), freshly-added directed
        edges are reserved then chained, and only the added clusters are
        claimed / removed clusters freed.  Clusters shared by both
        assignments never leave ``owner``, so a failure mid-commit rolls
        the fabric back to exactly the ``old`` wiring — the processor is
        never left regionless.

        Raises
        ------
        AllocationConflictError
            If ``owner`` does not own all of ``old``, or an added cluster
            or switch is held by someone else (rolled back first).
        DefectError
            If an added cluster is defective.
        RegionError
            If ``new`` leaves the fabric or the delta worm lost a chain
            instruction.
        """
        for coord in old.path:
            cluster = self.fabric.cluster(coord)
            if cluster.owner != owner:
                raise AllocationConflictError(
                    f"cluster {coord} owned by {cluster.owner!r}, "
                    f"not {owner!r}"
                )
        return self._rewire(old, new, owner)

    def _rewire(
        self, old: Optional[Region], new: Region, owner: Hashable
    ) -> ScalingOperation:
        """The one scaling worm: rewire ``owner`` from ``old`` (``None``:
        no region) to ``new``.

        Phase 1 (:meth:`_reserve`) checks the added clusters and plants a
        reservation flag on every added edge's chain switch.  Phase 2
        claims the added clusters, unchains the removed edges and chains
        the added ones — through a worm whose payload flits carry the
        added chain instructions when a router network is attached (a
        head-only worm when there are none), by direct programming
        otherwise — then clears the flags and frees the removed clusters.
        A worm that applied fewer chain instructions than it carried
        fails the commit, and a failed commit rolls the fabric back to
        exactly ``old``.
        """
        op_id = next(self._op_ids)
        token = ("worm", op_id)
        if old is None:
            removed, added = [], new.edges()
            removed_coords: Sequence[Coord] = ()
            added_coords: Sequence[Coord] = new.path
        else:
            removed, added = edge_delta(old, new)
            shared = set(old.path).intersection(new.path)
            removed_coords = [c for c in old.path if c not in shared]
            added_coords = [c for c in new.path if c not in shared]
        tracer = telemetry.tracer()
        tspan = None
        if tracer.enabled:
            if old is None:
                name = "wormhole.configure"
                shape = {"clusters": len(new.path), "ring": new.ring}
            else:
                name = "wormhole.reconfigure"
                shape = {"added_edges": len(added),
                         "removed_edges": len(removed)}
            tspan = tracer.start(
                name, kind="reconfig", op_id=op_id, owner=str(owner),
                head=str(new.path[0]), **shape,
            )
        try:
            with telemetry.scope("wormhole.reserve"), \
                    tracer.span("wormhole.reserve", kind="reconfig"):
                # each added edge's chain switch, looked up once for the
                # reservation, its release and the rollback
                flagged = self._reserve(added_coords, added, token)
                if tracer.enabled:
                    tracer.advance()
        except WORM_FAILURES:
            # a failed reserve already released its own flags and
            # programmed nothing — only close the operation span
            if tspan is not None:
                tspan.end(status="error")
            raise
        try:
            with telemetry.scope("wormhole.commit"), \
                    tracer.span("wormhole.commit", kind="reconfig"):
                for coord in added_coords:
                    self.fabric.cluster(coord).allocate(owner)
                self.fabric.program(removed, SwitchState.UNCHAINED)
                if self.network is not None:
                    # the worm's payload flits program the switches as
                    # they eject (§3.3); every lost instruction is one
                    # edge missing from the applied count
                    cycles, switches = self._deliver_worm(new, added)
                    if switches < len(added):
                        raise RegionError(
                            f"configuration worm to {new.path[0]} applied "
                            f"{switches} of {len(added)} chain instructions"
                        )
                else:
                    # every added edge is checked before any is chained,
                    # so a fault never leaves the region half chained
                    if self.faults is not None:
                        for a, b in added:
                            if self.faults.chain_switch_fault(a, b):
                                raise FaultInjectionError(
                                    f"chain switch {a}-{b} ignored its "
                                    "programming"
                                )
                    self.fabric.program(added, SwitchState.CHAINED)
                    cycles, switches = 0, len(added)
                for switch in flagged:
                    switch.release_reservation(token)
                for coord in removed_coords:
                    self.fabric.cluster(coord).free()
                if tracer.enabled:
                    tracer.advance()
        except WORM_FAILURES:
            telemetry.counter("wormhole.aborts").inc()
            if tspan is not None:
                tspan.add_event(
                    "wormhole.abort", op_id=op_id,
                    region_head=str(new.path[0]),
                )
            # the worm retreats to the *old* wiring: undo the additions,
            # restore the removals, keep shared clusters untouched
            self.fabric.program(added, SwitchState.UNCHAINED)
            for coord in added_coords:
                cluster = self.fabric.cluster(coord)
                if cluster.owner is not None:
                    cluster.free()
            self.fabric.program(removed, SwitchState.CHAINED)
            for switch in flagged:
                switch.release_reservation(token)
            if self.network is not None:
                # its dead flits leave the routers so a retry (or the
                # next operation) sees clean transport
                self.network.purge()
            if tspan is not None:
                tspan.end(status="error")
            raise
        telemetry.counter(
            "wormhole.configures" if old is None else "wormhole.reconfigures"
        ).inc()
        telemetry.counter("wormhole.switches_programmed").inc(switches)
        if tspan is not None:
            tspan.set_attr("config_cycles", cycles)
            tspan.set_attr("switches_programmed", switches)
            tspan.end()
        return ScalingOperation(op_id, owner, new, cycles, switches)

    def _reserve(
        self, coords: Sequence[Coord], edges: List[Edge], token: Hashable
    ) -> List[BidirectionalSwitch]:
        """Phase 1: check the clusters, plant the edges' reservation
        flags and return their chain switches in edge order; on a
        failure release the flags taken and re-raise."""
        taken: List[BidirectionalSwitch] = []
        # where the worm's head is when it hits trouble: the span
        # annotation is built from these only on a conflict
        coord = edge = None
        try:
            for coord in coords:
                if coord not in self.fabric:
                    raise RegionError(f"cluster {coord} outside the fabric")
                cluster = self.fabric.cluster(coord)
                if cluster.defective:
                    raise DefectError(f"cluster {coord} is defective")
                if cluster.owner is not None:
                    raise AllocationConflictError(
                        f"cluster {coord} owned by {cluster.owner!r}"
                    )
            for edge in edges:
                switch = self.fabric.chain_switch(*edge)
                switch.reserve(token)
                taken.append(switch)
        except WORM_FAILURES as exc:
            if isinstance(exc, AllocationConflictError):
                telemetry.counter("wormhole.reserve.conflicts").inc()
                telemetry.instant(
                    "wormhole.reserve.conflict",
                    at=f"cluster {coord}" if edge is None
                    else f"switch {edge[0]}-{edge[1]}",
                    flags_rolled_back=len(taken),
                )
            for switch in taken:
                switch.release_reservation(token)
            raise
        return taken

    def _deliver_worm(
        self, region: Region, edges: List[Edge]
    ) -> Tuple[int, int]:
        """Send the configuration worm whose payload flits *are* the
        switch programming: each flit carries one chain instruction
        (one per edge of ``edges``) that the destination cluster applies
        on ejection.  With no edges the worm is a lone head flit.

        Returns ``(delivery_cycles, switches_programmed)``, the second
        being the instructions applied: short of ``len(edges)`` by one
        for every instruction a faulty switch or corrupted flit lost.
        """
        assert self.network is not None
        start = self.network.cycle_count
        payloads: List[Tuple[str, Coord, Coord]] = [
            ("chain", a, b) for a, b in edges
        ]
        applied = 0

        def apply_payload(flit) -> None:
            nonlocal applied
            if not isinstance(flit.payload, tuple):
                return
            kind, a, b = flit.payload
            if kind == "chain":
                if self.faults is not None and self.faults.chain_switch_fault(a, b):
                    # the switch ignored the instruction: it goes
                    # uncounted, and the commit aborts on the short count
                    telemetry.counter("wormhole.switch_faults").inc()
                    return
                self.fabric.program(((a, b),), SwitchState.CHAINED)
                applied += 1

        previous_hook = self.network.on_deliver
        self.network.on_deliver = apply_payload
        try:
            packet = make_packet(
                self.origin, region.path[0], payloads=payloads or [None],
                packet_id=next(self._packet_ids),
            )
            if self.network.express_eligible(packet):
                # solo worm on a drained, unobserved, fault-pristine
                # network: its schedule is closed-form, so skip the
                # cycle stepping (bit-identical — see deliver_express)
                record = self.network.deliver_express(packet)
            else:
                self.network.inject(packet)
                self.network.run_until_drained()
                record = self.network.record_for(packet.packet_id)
        finally:
            self.network.on_deliver = previous_hook
        cycles = (record.delivered_at - start) if record else 0
        return cycles, applied

    # -- down-scaling --------------------------------------------------------

    def release(self, region: Region, owner: Hashable) -> None:
        """Down-scale: unchain the region and return clusters to the pool.

        Raises
        ------
        AllocationConflictError
            If any cluster in the region is not owned by ``owner``.
        """
        for coord in region.path:
            cluster = self.fabric.cluster(coord)
            if cluster.owner != owner:
                raise AllocationConflictError(
                    f"cluster {coord} owned by {cluster.owner!r}, not {owner!r}"
                )
        region.unchain_on(self.fabric)
        for coord in region.path:
            self.fabric.cluster(coord).free()

    # -- helpers -----------------------------------------------------------

    def route_length(self, region: Region) -> int:
        """Hops the configuration worm travels from the origin to the region."""
        return len(xy_path(self.origin, region.path[0])) - 1
