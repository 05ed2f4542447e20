"""Wormhole reconfiguration of the S-topology (paper section 3.3).

"The scaling is done by programming the switches through wormhole
routing using on-chip routers ... Wormhole routing is used to store a
reservation flag at each programmable switch to avoid a resource
(cluster) allocation conflict among the scaling configurations."

A scaling operation is two-phase, exactly like the worm:

1. **Reserve** — the worm's head crawls the region path, planting the
   reservation flag on every chain switch it will program and claiming
   every cluster.  Hitting a flag or cluster owned by another in-flight
   operation aborts the worm, which retreats and releases everything it
   had taken (no partial configurations survive).
2. **Commit** — the configuration data in the worm's body programs the
   switches (chain the region), ownership transfers to the processor,
   and the reservation flags clear.

Down-scaling is the reverse: unchain and free, no reservation needed
("the down-scale ... is possible ... by clearing active state").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

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
from repro.topology.regions import Region
from repro.topology.s_topology import STopology

__all__ = ["ScalingOperation", "WormholeConfigurator", "WORM_FAILURES"]

Coord = Tuple[int, int]

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
        #: post-delivery verify turns into an abort-and-retreat.
        self.faults = faults
        # per-configurator, not module-global: op and packet ids would
        # otherwise depend on import-time history and leak into trace
        # attributes, breaking cross-run and serial-vs-parallel identity
        self._op_ids = itertools.count()
        self._packet_ids = itertools.count()

    # -- up-scaling ---------------------------------------------------------

    def configure(self, region: Region, owner: Hashable) -> ScalingOperation:
        """Run a full reserve→commit scaling worm for ``region``.

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
        op_id = next(self._op_ids)
        worm_token = ("worm", op_id)
        tracer = telemetry.tracer()
        tspan = None
        if tracer.enabled:
            tspan = tracer.start(
                "wormhole.configure", kind="reconfig", op_id=op_id,
                owner=str(owner), head=str(region.path[0]),
                clusters=len(region.path), ring=region.ring,
            )
        try:
            with telemetry.scope("wormhole.reserve"), \
                    tracer.span("wormhole.reserve", kind="reconfig"):
                self._reserve(region, worm_token)
                if tracer.enabled:
                    tracer.advance()
        except WORM_FAILURES:
            # a failed reserve already rolled its own flags back — only
            # close the operation span, don't run the commit-side abort
            if tspan is not None:
                tspan.end(status="error")
            raise
        try:
            with telemetry.scope("wormhole.commit"), \
                    tracer.span("wormhole.commit", kind="reconfig"):
                if self.network is not None:
                    # phase 2a: take ownership, then let the worm's payload
                    # flits program the switches as they eject (§3.3)
                    for coord in region.path:
                        self.fabric.cluster(coord).allocate(owner)
                    cycles, switches = self._deliver_worm(region)
                    self._verify_chained(region)
                    self._release_flags(region, worm_token)
                else:
                    switches = self._commit(region, owner, worm_token)
                    cycles = 0
                if tracer.enabled:
                    tracer.advance()
        except WORM_FAILURES:
            telemetry.counter("wormhole.aborts").inc()
            if tspan is not None:
                tspan.add_event(
                    "wormhole.abort", op_id=op_id,
                    region_head=str(region.path[0]),
                )
            self._abort(region, worm_token)
            if self.network is not None:
                # the worm retreats: its dead flits leave the routers so
                # a retry (or the next operation) sees clean transport
                self.network.purge()
            if tspan is not None:
                tspan.end(status="error")
            raise
        telemetry.counter("wormhole.configures").inc()
        telemetry.counter("wormhole.switches_programmed").inc(switches)
        if tspan is not None:
            tspan.set_attr("config_cycles", cycles)
            tspan.set_attr("switches_programmed", switches)
            tspan.end()
        return ScalingOperation(op_id, owner, region, cycles, switches)

    def _reserve(self, region: Region, token: Hashable) -> None:
        """Phase 1: plant reservation flags; abort-and-rollback on conflict."""
        taken: List[Tuple[Coord, Coord]] = []
        #: where the worm's head was when it hit trouble (span annotation)
        at = "start"
        try:
            for coord in region.path:
                at = f"cluster {coord}"
                if coord not in self.fabric:
                    raise RegionError(f"cluster {coord} outside the fabric")
                cluster = self.fabric.cluster(coord)
                if cluster.defective:
                    raise DefectError(f"cluster {coord} is defective")
                if cluster.owner is not None:
                    raise AllocationConflictError(
                        f"cluster {coord} owned by {cluster.owner!r}"
                    )
            for a, b in region.edges():
                at = f"switch {a}-{b}"
                self.fabric.chain_switch(a, b).reserve(token)
                taken.append((a, b))
        except WORM_FAILURES as exc:
            if isinstance(exc, AllocationConflictError):
                telemetry.counter("wormhole.reserve.conflicts").inc()
                telemetry.instant(
                    "wormhole.reserve.conflict", at=at,
                    flags_rolled_back=len(taken),
                )
            for a, b in taken:
                self.fabric.chain_switch(a, b).release_reservation(token)
            raise

    def _commit(self, region: Region, owner: Hashable, token: Hashable) -> int:
        """Phase 2: program switches, take ownership, clear flags."""
        for coord in region.path:
            self.fabric.cluster(coord).allocate(owner)
        edges = region.edges()
        if self.faults is not None:
            for a, b in edges:
                if self.faults.chain_switch_fault(a, b):
                    raise FaultInjectionError(
                        f"chain switch {a}-{b} ignored its programming"
                    )
        region.chain_on(self.fabric)
        self._release_flags(region, token)
        return len(edges)

    def _abort(self, region: Region, token: Hashable) -> None:
        """Roll back a failed commit: unchain any programmed switches,
        free clusters, clear flags."""
        if all(coord in self.fabric for coord in region.path):
            region.unchain_on(self.fabric)  # unchaining twice is a no-op
        for coord in region.path:
            if coord in self.fabric:
                cluster = self.fabric.cluster(coord)
                if cluster.owner is not None:
                    cluster.free()
        self._release_flags(region, token)

    def _release_flags(self, region: Region, token: Hashable) -> None:
        for a, b in region.edges():
            self.fabric.chain_switch(a, b).release_reservation(token)

    def _deliver_worm(
        self,
        region: Region,
        edges: Optional[List[Tuple[Coord, Coord]]] = None,
    ) -> Tuple[int, int]:
        """Send the configuration worm whose payload flits *are* the
        switch programming: each flit carries one chain instruction that
        the destination cluster applies on ejection.

        ``edges`` restricts the worm's payload to those chain
        instructions (a delta rewire only ships the freshly-chained
        edges); by default the worm programs the whole region.

        Returns ``(delivery_cycles, switches_programmed)``.
        """
        assert self.network is not None
        start = self.network.cycle_count
        if edges is None:
            edges = region.edges()
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
                    # the switch ignored the instruction; the region ends
                    # up partially chained and _verify_chained aborts
                    telemetry.counter("wormhole.switch_faults").inc()
                    return
                self.fabric.chain_switch(a, b).chain()
                self.fabric.shift_switch(a, b).chain()
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

    def _verify_chained(self, region: Region) -> None:
        """Post-condition of a delivered worm: the region is one chained
        component (single-cluster regions are trivially so)."""
        component = self.fabric.chained_component(region.path[0])
        if not set(region.path) <= component:
            raise RegionError(
                f"configuration worm left region at {region.path[0]} "
                "partially chained"
            )

    # -- delta rewiring ------------------------------------------------------

    def reconfigure(
        self, old: Region, new: Region, owner: Hashable
    ) -> ScalingOperation:
        """Morph ``owner``'s region from ``old`` to ``new`` as a delta.

        Unlike release-then-:meth:`configure`, only the *difference* is
        touched: directed edges leaving the assignment are unchained
        (direct clearing, §3.3 — no worm flits), freshly-added directed
        edges are reserved then chained (one config-stream flit each when
        a router network is attached), and only the added clusters are
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
            If ``new`` leaves the fabric or the delta worm leaves it
            partially chained.
        """
        for coord in old.path:
            cluster = self.fabric.cluster(coord)
            if cluster.owner != owner:
                raise AllocationConflictError(
                    f"cluster {coord} owned by {cluster.owner!r}, "
                    f"not {owner!r}"
                )
        op_id = next(self._op_ids)
        token = ("rewire", op_id)
        old_edges = old.edges()
        new_edges = new.edges()
        removed = [e for e in old_edges if e not in set(new_edges)]
        added = [e for e in new_edges if e not in set(old_edges)]
        old_coords = set(old.path)
        new_coords = set(new.path)
        added_coords = [c for c in new.path if c not in old_coords]
        removed_coords = [c for c in old.path if c not in new_coords]
        tracer = telemetry.tracer()
        tspan = None
        if tracer.enabled:
            tspan = tracer.start(
                "wormhole.reconfigure", kind="reconfig", op_id=op_id,
                owner=str(owner), head=str(new.path[0]),
                added_edges=len(added), removed_edges=len(removed),
            )
        # phase 1: reserve the added edges' switches, validate added clusters
        taken: List[Tuple[Coord, Coord]] = []
        try:
            for coord in added_coords:
                if coord not in self.fabric:
                    raise RegionError(f"cluster {coord} outside the fabric")
                cluster = self.fabric.cluster(coord)
                if cluster.defective:
                    raise DefectError(f"cluster {coord} is defective")
                if cluster.owner is not None:
                    raise AllocationConflictError(
                        f"cluster {coord} owned by {cluster.owner!r}"
                    )
            for a, b in added:
                self.fabric.chain_switch(a, b).reserve(token)
                taken.append((a, b))
        except WORM_FAILURES:
            for a, b in taken:
                self.fabric.chain_switch(a, b).release_reservation(token)
            if tspan is not None:
                tspan.end(status="error")
            raise
        # phase 2: commit the delta
        try:
            for coord in added_coords:
                self.fabric.cluster(coord).allocate(owner)
            for a, b in removed:
                self.fabric.chain_switch(a, b).unchain()
                self.fabric.shift_switch(a, b).unchain()
            if self.network is not None and added:
                cycles, switches = self._deliver_worm(new, edges=added)
            else:
                if self.faults is not None:
                    for a, b in added:
                        if self.faults.chain_switch_fault(a, b):
                            raise FaultInjectionError(
                                f"chain switch {a}-{b} ignored its "
                                "programming"
                            )
                for a, b in added:
                    self.fabric.chain_switch(a, b).chain()
                    self.fabric.shift_switch(a, b).chain()
                cycles, switches = 0, len(added)
            self._verify_chained(new)
            for a, b in added:
                self.fabric.chain_switch(a, b).release_reservation(token)
            for coord in removed_coords:
                self.fabric.cluster(coord).free()
        except WORM_FAILURES:
            telemetry.counter("wormhole.aborts").inc()
            if tspan is not None:
                tspan.add_event(
                    "wormhole.abort", op_id=op_id,
                    region_head=str(new.path[0]),
                )
            # the worm retreats to the *old* wiring: undo the additions,
            # restore the removals, keep shared clusters untouched
            for a, b in added:
                self.fabric.chain_switch(a, b).unchain()
                self.fabric.shift_switch(a, b).unchain()
            for coord in added_coords:
                cluster = self.fabric.cluster(coord)
                if cluster.owner is not None:
                    cluster.free()
            for a, b in removed:
                self.fabric.chain_switch(a, b).chain()
                self.fabric.shift_switch(a, b).chain()
            for a, b in added:
                self.fabric.chain_switch(a, b).release_reservation(token)
            if self.network is not None:
                self.network.purge()
            if tspan is not None:
                tspan.end(status="error")
            raise
        telemetry.counter("wormhole.reconfigures").inc()
        telemetry.counter("wormhole.switches_programmed").inc(switches)
        if tspan is not None:
            tspan.set_attr("config_cycles", cycles)
            tspan.set_attr("switches_programmed", switches)
            tspan.end()
        return ScalingOperation(op_id, owner, new, cycles, switches)

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
