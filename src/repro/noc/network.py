"""Cycle-level router-grid simulator.

Connects a grid of :class:`repro.noc.router.Router` instances, injects
packets at their source routers' LOCAL ports, steps the whole fabric one
cycle at a time, and collects per-packet latency records.  XY routing on
a mesh is deadlock-free, but the simulator still watches for global
no-progress (a protocol bug would otherwise hang a test run).

A worm travelling alone through a drained, unobserved, fault-free
network is deterministic, and :meth:`RouterNetwork.deliver_express`
delivers it without stepping.  Over ``h`` hops a worm of ``n`` flits
pipelines when the input queues hold two flits or more, when it is one
flit, or when it never leaves its source router: flit ``i`` ejects at
cycle ``h + i``, nothing stalls, every flit moves ``h + 1`` times
(``h`` links and the ejection), and the network sees itself drained one
cycle after the last ejection, at ``h + n``.  With single-slot queues a
multi-flit, multi-hop worm's body flit advances only into a slot that is
already empty when its router commits.  Routers commit in row-major
order, so whether a slot vacated in the same cycle counts depends on the
route's direction through the grid: such a worm waits a cycle per body
flit on a route with a hop toward a higher row-major coordinate and
pipelines on the others.  That is an iteration-order detail, not
protocol state, so those worms always step.  ``tests/noc/test_express.py``
checks express delivery against stepping for every configuration of a
4x4 grid with one to three flits and queues of one, two and four slots.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro import telemetry
from repro.errors import RoutingError, SimulationError
from repro.noc.flit import Flit, Packet
from repro.noc.router import Router
from repro.noc.routing_algos import OPPOSITE, Port, neighbor_via
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
        #: attribute check per cycle.  A sampled network steps every
        #: worm (see :meth:`express_eligible`).
        self.sampler = None
        self.delivered: List[DeliveryRecord] = []
        self._inject_backlog: Dict[Coord, Deque[Flit]] = {
            coord: deque() for coord in self.routers
        }
        #: Flits queued in routers or awaiting injection: ``inject`` adds
        #: a packet's flits, each LOCAL ejection subtracts one, ``purge``
        #: zeroes it — the drain check reads it instead of scanning.
        self._in_flight = 0
        # per-packet bookkeeping, keyed by id while the packet is in
        # flight; an entry leaves when its DeliveryRecord is made
        self._inject_time: Dict[int, int] = {}
        self._arrived_flits: Dict[int, int] = {}
        self._packet_meta: Dict[int, Packet] = {}

    # -- injection --------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Queue a packet for injection at its source router.

        Raises
        ------
        RoutingError
            If an endpoint lies outside the grid, a flit uses an
            unprovisioned VC, or a packet with the same id is still in
            flight.
        """
        self._check_packet(packet)
        self._inject_time[packet.packet_id] = self.cycle_count
        self._packet_meta[packet.packet_id] = packet
        self._inject_backlog[packet.src].extend(packet.flits)
        self._in_flight += len(packet.flits)

    def _check_packet(self, packet: Packet) -> None:
        pid = packet.packet_id
        if packet.src not in self.routers or packet.dst not in self.routers:
            raise RoutingError(f"packet {pid} endpoints outside the grid")
        if any(f.vc >= self.n_vcs for f in packet.flits):
            raise RoutingError(
                f"packet {pid} uses a VC beyond the {self.n_vcs} provisioned"
            )
        if pid in self._packet_meta:
            raise RoutingError(f"packet {pid} is already in flight")

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
                self._in_flight -= 1
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

        The closed form (see the module docstring) holds only when
        nothing can perturb the cycle-by-cycle transport: the network
        must be fully drained (no contention — a read of the in-flight
        flit count, not a scan of the routers), no tracer span per hop,
        no sampler (it samples the live queues every step), and no fault
        injector that could stall a link (a pristine injector — rate-0
        plan, nothing quarantined — is fine: its hooks are no-ops).

        When ``packet`` is given, additionally checks that *it*
        pipelines — single-slot queues make multi-flit, multi-hop timing
        depend on router commit order, which only the stepped simulator
        reproduces.
        """
        if (
            not self.is_drained()
            or telemetry.tracer().enabled
            or self.sampler is not None
            or (self.faults is not None and not self.faults.pristine())
        ):
            return False
        if packet is None:
            return True
        if packet.src not in self.routers or packet.dst not in self.routers:
            return False  # let inject() raise the real error
        return self._pipelines(packet)

    def _pipelines(self, packet: Packet) -> bool:
        """Whether ``packet`` alone ejects one flit per cycle (the
        module docstring's closed form)."""
        return (
            self.routers[packet.src].queue_capacity >= 2
            or len(packet) == 1
            or packet.src == packet.dst
        )

    def deliver_express(self, packet: Packet, max_cycles: int = 100_000):
        """Deliver ``packet`` as if by :meth:`inject` +
        :meth:`run_until_drained`, without stepping routers.

        Callers must have checked :meth:`express_eligible`.  Every
        observable matches the stepped run bit-for-bit: the per-flit
        ``on_deliver`` hook order, each flit's corruption check, the
        :class:`DeliveryRecord` (``delivered_at`` included), the final
        ``cycle_count``, and the ``noc.cycles`` / ``noc.flit_moves`` /
        delivery counters.  Returns the delivery record.

        The worm's flits never enter a queue, so the in-flight count
        stays untouched.

        Raises
        ------
        RoutingError
            For the packets :meth:`inject` refuses.
        SimulationError
            When the worm does not pipeline (single-slot queues,
            multi-flit, multi-hop), or takes more than ``max_cycles``
            cycles — the stepped run would have exhausted its cycle
            budget too.
        """
        self._check_packet(packet)
        if not self._pipelines(packet):
            raise SimulationError(
                f"packet {packet.packet_id} has no exact express schedule "
                "(single-slot queues, multi-flit, multi-hop) — "
                "deliver it by stepping"
            )
        hops = manhattan(packet.src, packet.dst)
        n_flits = len(packet)
        drain = hops + n_flits
        if drain > max_cycles:
            raise SimulationError(f"exceeded cycle budget {max_cycles}")
        start = self.cycle_count
        self._inject_time[packet.packet_id] = start
        self._packet_meta[packet.packet_id] = packet
        for i, flit in enumerate(packet.flits):
            # _deliver stamps the record from cycle_count, and hooks may
            # read it: hold the clock at each flit's ejection cycle
            self.cycle_count = start + hops + i
            self._deliver(flit)
        self.cycle_count = start + drain
        telemetry.counter("noc.cycles").inc(drain)
        telemetry.counter("noc.flit_moves").inc(n_flits * (hops + 1))
        return self.delivered[-1]

    # -- delivery bookkeeping ----------------------------------------------

    def _deliver(self, flit: Flit) -> None:
        corrupted = (
            self.faults is not None
            and flit.payload is not None
            and self.faults.flit_fault(flit.payload)
        )
        if corrupted:
            # the flit arrives but its payload (e.g. a switch-programming
            # instruction) is lost — the configurator counts it missing,
            # aborts the commit and the worm is re-sent
            telemetry.counter("noc.corrupted_flits").inc()
        elif self.on_deliver is not None:
            self.on_deliver(flit)
        pid = flit.packet_id
        self._arrived_flits[pid] = self._arrived_flits.get(pid, 0) + 1
        packet = self._packet_meta[pid]
        if self._arrived_flits[pid] == len(packet):
            # the packet is whole: drop its bookkeeping so the id may return
            del self._packet_meta[pid], self._arrived_flits[pid]
            record = DeliveryRecord(
                packet_id=pid,
                src=packet.src,
                dst=packet.dst,
                injected_at=self._inject_time.pop(pid),
                delivered_at=self.cycle_count,
                n_flits=len(packet),
            )
            self.delivered.append(record)
            telemetry.counter("noc.packets.delivered").inc()
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
        would otherwise fail :meth:`run_until_drained` forever.  Nothing
        is in flight afterwards: the in-flight count returns to zero and
        the dropped packets' bookkeeping goes with them.  Returns the
        number of flits dropped.
        """
        dropped = 0
        for router in self.routers.values():
            dropped += router.clear()
        for backlog in self._inject_backlog.values():
            dropped += len(backlog)
            backlog.clear()
        self._in_flight = 0
        self._inject_time.clear()
        self._arrived_flits.clear()
        self._packet_meta.clear()
        if dropped:
            telemetry.counter("noc.purged_flits").inc(dropped)
        return dropped

    # -- state queries -----------------------------------------------------

    def is_drained(self) -> bool:
        """Whether no flit is queued in a router or awaiting injection.

        Answered from the in-flight count, not by scanning routers: with
        no flit left every tail has passed, so no wormhole lock remains
        either."""
        return not self._in_flight

    def in_flight(self) -> int:
        """Flits currently queued in routers or awaiting injection — a
        count :meth:`inject`, each LOCAL ejection and :meth:`purge` keep."""
        return self._in_flight

    def buffer_depths(self) -> Dict[str, int]:
        """Queued-flit count per router, keyed ``"r<row>c<col>"`` in
        row-major order — the Figure 7(e) input queues as one samplable
        observation (where a worm's backpressure piles up)."""
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
        so one network may legitimately see the same id again once the
        earlier packet was delivered (an id still in flight is refused);
        callers always want the delivery they just drained.
        """
        for rec in reversed(self.delivered):
            if rec.packet_id == packet_id:
                return rec
        return None
