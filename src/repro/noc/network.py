"""Cycle-level router-grid simulator.

Connects a grid of :class:`repro.noc.router.Router` instances, injects
packets at their source routers' LOCAL ports, steps the whole fabric one
cycle at a time, and collects per-packet latency records.  XY routing on
a mesh is deadlock-free, but the simulator still watches for global
no-progress (a protocol bug would otherwise hang a test run).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro import telemetry
from repro.errors import RoutingError, SimulationError
from repro.noc.flit import Flit, Packet
from repro.noc.router import Router
from repro.noc.routing_algos import OPPOSITE, Port, neighbor_via, xy_path
from repro.topology.metrics import manhattan

__all__ = ["DeliveryRecord", "RouterNetwork"]

Coord = Tuple[int, int]


@dataclass(frozen=True)
class DeliveryRecord:
    """Lifetime of one delivered packet."""

    packet_id: int
    src: Coord
    dst: Coord
    injected_at: int
    delivered_at: int
    n_flits: int

    @property
    def latency(self) -> int:
        return self.delivered_at - self.injected_at

    @property
    def hops(self) -> int:
        return manhattan(self.src, self.dst)


class RouterNetwork:
    """A ``rows × cols`` grid of wormhole routers."""

    def __init__(
        self,
        rows: int,
        cols: int,
        queue_capacity: int = 4,
        n_vcs: int = 1,
        on_deliver=None,
        faults=None,
    ) -> None:
        """``on_deliver(flit)`` — optional hook invoked as each flit
        ejects at its destination's LOCAL port; this is how configuration
        worms apply their switch-programming payloads (§3.3).

        ``faults`` — optional :class:`repro.faults.FaultInjector`: a
        faulty link stalls the flit crossing it that cycle (transient
        faults heal, permanent ones starve the worm until the
        no-progress watchdog aborts it); a corrupted payload flit still
        arrives but its ``on_deliver`` programming action is lost."""
        if rows < 1 or cols < 1:
            raise RoutingError("network needs positive dimensions")
        self.rows = rows
        self.cols = cols
        self.n_vcs = n_vcs
        self.on_deliver = on_deliver
        self.faults = faults
        self.routers: Dict[Coord, Router] = {
            (r, c): Router((r, c), queue_capacity, n_vcs=n_vcs)
            for r in range(rows)
            for c in range(cols)
        }
        self.cycle_count = 0
        #: Optional :class:`repro.telemetry.Sampler` ticked once per
        #: :meth:`step` — attach buffer-depth probes here to record the
        #: per-router queue heatmap; ``None`` (the default) costs one
        #: attribute check per cycle.
        self.sampler = None
        #: While express delivery replays a worm's schedule, this holds the
        #: synthetic per-router queue depths :meth:`buffer_depths` should
        #: report to the sampler's probes; ``None`` means live queues.
        self._express_depths: Optional[Dict[str, int]] = None
        self.delivered: List[DeliveryRecord] = []
        self._inject_backlog: Dict[Coord, Deque[Flit]] = {
            coord: deque() for coord in self.routers
        }
        self._inject_time: Dict[int, int] = {}
        self._arrived_flits: Dict[int, int] = {}
        self._packet_meta: Dict[int, Packet] = {}

    # -- injection --------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Queue a packet for injection at its source router."""
        if packet.src not in self.routers or packet.dst not in self.routers:
            raise RoutingError(
                f"packet {packet.packet_id} endpoints outside the grid"
            )
        if any(f.vc >= self.n_vcs for f in packet.flits):
            raise RoutingError(
                f"packet {packet.packet_id} uses a VC beyond the "
                f"{self.n_vcs} provisioned"
            )
        self._inject_time[packet.packet_id] = self.cycle_count
        self._packet_meta[packet.packet_id] = packet
        self._inject_backlog[packet.src].extend(packet.flits)

    # -- simulation -------------------------------------------------------

    def step(self) -> int:
        """Advance one cycle; returns the number of flit movements made."""
        # inject backlog into LOCAL queues as space allows (per-VC queues)
        for coord, backlog in self._inject_backlog.items():
            router = self.routers[coord]
            while backlog and router.can_accept(Port.LOCAL, backlog[0].vc):
                router.receive(Port.LOCAL, backlog.popleft())

        # gather ALL proposals before committing any, so a flit advances at
        # most one hop per cycle regardless of router iteration order
        proposals = [
            (coord, router, move)
            for coord, router in self.routers.items()
            for move in router.arbitrate()
        ]
        tracer = telemetry.tracer()
        tracing = tracer.enabled
        movements = 0
        for coord, router, move in proposals:
            if move.out_port is Port.LOCAL:
                flit = router.commit_move(move)
                if tracing:
                    tracer.complete(
                        "noc.hop", kind="flit", packet=flit.packet_id,
                        at=str(coord), port="LOCAL", eject=True,
                    )
                self._deliver(flit)
                movements += 1
            else:
                nbr = neighbor_via(coord, move.out_port)
                in_port = OPPOSITE[move.out_port]
                nbr_router = self.routers.get(nbr)
                if nbr_router is None:
                    raise SimulationError(
                        f"route runs off the grid at {coord} -> {nbr}"
                    )
                if self.faults is not None and self.faults.link_fault(coord, nbr):
                    # the link dropped the flit this cycle: stall in
                    # place and retry next cycle (counts as a stall)
                    telemetry.counter("noc.link_fault_stalls").inc()
                    continue
                if nbr_router.can_accept(in_port, move.vc):
                    flit = router.commit_move(move)
                    nbr_router.receive(in_port, flit)
                    if tracing:
                        tracer.complete(
                            "noc.hop", kind="flit", packet=flit.packet_id,
                            src=str(coord), dst=str(nbr),
                            port=move.out_port.name,
                        )
                    movements += 1
                # else: stall this worm for a cycle
        if tracing:
            stalled_now = len(proposals) - movements
            if stalled_now:
                tracer.instant(
                    "noc.stall", cycle=tracer.cycle, flits=stalled_now
                )
            tracer.advance()  # one network step = one trace cycle
        self.cycle_count += 1
        telemetry.counter("noc.cycles").inc()
        if movements:
            telemetry.counter("noc.flit_moves").inc(movements)
        stalled = len(proposals) - movements
        if stalled:
            telemetry.counter("noc.stalls").inc(stalled)
        if self.sampler is not None:
            self.sampler.tick()
        return movements

    def run_until_drained(self, max_cycles: int = 100_000) -> int:
        """Step until every queue and backlog is empty.

        Returns the cycle count at drain.  ``max_cycles`` budgets the
        cycles stepped in this call, not the network's lifetime clock.

        Raises
        ------
        SimulationError
            If no progress happens while work remains, or the cycle
            budget is exhausted.
        """
        start = self.cycle_count
        idle_streak = 0
        while not self.is_drained():
            moved = self.step()
            idle_streak = idle_streak + 1 if moved == 0 else 0
            if idle_streak > 4:
                raise SimulationError(
                    f"network made no progress for {idle_streak} cycles "
                    f"with {self.in_flight()} flits in flight"
                )
            if self.cycle_count - start > max_cycles:
                raise SimulationError(f"exceeded cycle budget {max_cycles}")
        return self.cycle_count

    # -- express delivery (mega-scale fast path) -----------------------------

    def express_eligible(self, packet: Optional[Packet] = None) -> bool:
        """Whether a solo worm can be delivered by closed form instead of
        cycle stepping.

        The closed-form schedule (:mod:`repro.megascale.noc_kernel`) is
        exact only when nothing can perturb the cycle-by-cycle transport:
        the network must be fully drained (no contention), no tracer span
        per hop, and no fault injector that could stall a link (a
        pristine injector — rate-0 plan, nothing quarantined — is fine:
        its hooks are no-ops).  An attached sampler does *not* disqualify
        the fast path: :meth:`deliver_express` ticks it once per
        scheduled step against the schedule's closed-form queue depths,
        byte-identical to stepping.

        When ``packet`` is given, additionally checks that *its* schedule
        is exact — single-slot queues make multi-flit, multi-hop timing
        depend on router commit order, which only the stepped simulator
        reproduces.
        """
        if (
            not self.is_drained()
            or telemetry.tracer().enabled
            or (self.faults is not None and not self.faults.pristine())
        ):
            return False
        if packet is None:
            return True
        if packet.src not in self.routers or packet.dst not in self.routers:
            return False  # let inject() raise the real error
        from repro.megascale.noc_kernel import worm_schedule

        return worm_schedule(
            packet.src,
            packet.dst,
            len(packet),
            self.routers[packet.src].queue_capacity,
        ).exact

    def deliver_express(self, packet: Packet, max_cycles: int = 100_000):
        """Deliver ``packet`` as if by :meth:`inject` +
        :meth:`run_until_drained`, without stepping routers.

        Callers must have checked :meth:`express_eligible`.  Every
        observable matches the stepped run bit-for-bit: the per-flit
        ``on_deliver`` hook order, each flit's corruption check, the
        :class:`DeliveryRecord` (``delivered_at`` included), the final
        ``cycle_count``, and the ``noc.cycles`` / ``noc.flit_moves`` /
        ``noc.stalls`` / delivery counters.  Returns the delivery record.

        Raises
        ------
        SimulationError
            When the schedule takes more than ``max_cycles`` cycles —
            the stepped run would have exhausted its cycle budget too.
        """
        from repro.megascale.noc_kernel import worm_schedule

        if packet.src not in self.routers or packet.dst not in self.routers:
            raise RoutingError(
                f"packet {packet.packet_id} endpoints outside the grid"
            )
        if any(f.vc >= self.n_vcs for f in packet.flits):
            raise RoutingError(
                f"packet {packet.packet_id} uses a VC beyond the "
                f"{self.n_vcs} provisioned"
            )
        schedule = worm_schedule(
            packet.src,
            packet.dst,
            len(packet),
            self.routers[packet.src].queue_capacity,
        )
        if not schedule.exact:
            raise SimulationError(
                f"packet {packet.packet_id} has no exact express schedule "
                "(single-slot queues, multi-flit, multi-hop) — "
                "deliver it by stepping"
            )
        start = self.cycle_count
        if schedule.drain_at > max_cycles:
            raise SimulationError(f"exceeded cycle budget {max_cycles}")
        self._inject_time[packet.packet_id] = start
        self._packet_meta[packet.packet_id] = packet
        if self.sampler is None:
            for flit, offset in zip(packet.flits, schedule.eject_offsets()):
                # _deliver stamps the record from cycle_count, and hooks
                # may read it: hold the clock at each flit's ejection cycle
                self.cycle_count = start + offset
                self._deliver(flit)
        else:
            self._deliver_express_sampled(packet, schedule, start)
        self.cycle_count = start + schedule.drain_at
        telemetry.counter("noc.cycles").inc(schedule.drain_at)
        telemetry.counter("noc.flit_moves").inc(schedule.flit_moves)
        if schedule.stalls:
            telemetry.counter("noc.stalls").inc(schedule.stalls)
        return self.delivered[-1]

    def _deliver_express_sampled(self, packet: Packet, schedule, start: int) -> None:
        """Walk the closed-form schedule step by step, ticking the
        attached sampler exactly as :meth:`run_until_drained` would.

        Each scheduled local step ``t`` first delivers the flits whose
        eject offset falls in it (``offset == t - 1`` — the stepped run
        stamps deliveries from the pre-increment clock), then advances
        the clock and ticks the sampler once while :meth:`buffer_depths`
        reports the schedule's closed-form queue depths mapped onto the
        worm's XY route — so the buffer-depth heatmap matches the
        stepped run's sample for sample.
        """
        route = xy_path(packet.src, packet.dst)
        zeros = {
            f"r{r}c{c}": 0 for (r, c) in sorted(self.routers)
        }
        ejects = list(zip(packet.flits, schedule.eject_offsets()))
        next_eject = 0
        try:
            for t in range(1, schedule.drain_at + 1):
                while next_eject < len(ejects) and ejects[next_eject][1] == t - 1:
                    flit, offset = ejects[next_eject]
                    self.cycle_count = start + offset
                    self._deliver(flit)
                    next_eject += 1
                self.cycle_count = start + t
                depths = dict(zeros)
                for pos, depth in schedule.queue_depths(t).items():
                    r, c = route[pos]
                    depths[f"r{r}c{c}"] = depth
                self._express_depths = depths
                self.sampler.tick()
        finally:
            self._express_depths = None

    # -- delivery bookkeeping ----------------------------------------------

    def _deliver(self, flit: Flit) -> None:
        corrupted = (
            self.faults is not None
            and flit.payload is not None
            and self.faults.flit_fault(flit.payload)
        )
        if corrupted:
            # the flit arrives but its payload (e.g. a switch-programming
            # instruction) is lost — §3.3's verify step catches the
            # partially-configured region and the worm is re-sent
            telemetry.counter("noc.corrupted_flits").inc()
        elif self.on_deliver is not None:
            self.on_deliver(flit)
        pid = flit.packet_id
        self._arrived_flits[pid] = self._arrived_flits.get(pid, 0) + 1
        packet = self._packet_meta[pid]
        if self._arrived_flits[pid] == len(packet):
            record = DeliveryRecord(
                packet_id=pid,
                src=packet.src,
                dst=packet.dst,
                injected_at=self._inject_time[pid],
                delivered_at=self.cycle_count,
                n_flits=len(packet),
            )
            self.delivered.append(record)
            telemetry.counter("noc.packets.delivered").inc()
            telemetry.event(
                "noc.delivered", packet_id=pid, latency=record.latency,
                hops=record.hops, n_flits=record.n_flits,
            )
            telemetry.instant(
                "noc.packet.delivered", packet=pid,
                latency=record.latency, hops=record.hops,
            )

    # -- recovery ----------------------------------------------------------

    def purge(self) -> int:
        """Drop every in-flight flit (queues, locks, inject backlog).

        This is the transport half of a worm retreat: after an aborted
        scaling operation rolled the fabric back, the dead worm's flits
        must not keep clogging the routers — a later, healthy operation
        would otherwise fail :meth:`run_until_drained` forever.  Returns
        the number of flits dropped.
        """
        dropped = 0
        for router in self.routers.values():
            dropped += router.clear()
        for backlog in self._inject_backlog.values():
            dropped += len(backlog)
            backlog.clear()
        if dropped:
            telemetry.counter("noc.purged_flits").inc(dropped)
            telemetry.event("noc.purge", flits=dropped)
        return dropped

    # -- state queries -----------------------------------------------------

    def is_drained(self) -> bool:
        return (
            all(not b for b in self._inject_backlog.values())
            and all(r.is_idle for r in self.routers.values())
        )

    def in_flight(self) -> int:
        """Flits currently queued in routers or awaiting injection."""
        return sum(r.occupancy() for r in self.routers.values()) + sum(
            len(b) for b in self._inject_backlog.values()
        )

    def buffer_depths(self) -> Dict[str, int]:
        """Queued-flit count per router, keyed ``"r<row>c<col>"`` in
        row-major order — the Figure 7(e) input queues as one samplable
        observation (where a worm's backpressure piles up).

        During express delivery the live queues never hold the worm's
        flits; the synthetic depths derived from the closed-form schedule
        are reported instead (same keys, same row-major order)."""
        if self._express_depths is not None:
            return self._express_depths
        return {
            f"r{r}c{c}": router.queued_flits()
            for (r, c), router in sorted(self.routers.items())
        }

    def mean_latency(self) -> float:
        if not self.delivered:
            return 0.0
        return sum(d.latency for d in self.delivered) / len(self.delivered)

    def record_for(self, packet_id: int) -> Optional[DeliveryRecord]:
        """The most recent delivery record for ``packet_id``.

        Most recent, not first: packet ids are scoped to whoever created
        the packet (e.g. a :class:`WormholeConfigurator`'s own counter),
        so one network may legitimately see the same id twice over its
        lifetime; callers always want the delivery they just drained.
        """
        for rec in reversed(self.delivered):
            if rec.packet_id == packet_id:
                return rec
        return None
