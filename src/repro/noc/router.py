"""The five-port wormhole router (paper Figure 7(e), reference [18]).

"Figure 7 (e) shows the current router architecture under development"
— each of the five ports (N/E/S/W/Local) has an input **queue**, an
**allocation** stage, and an **output** stage.  This model implements
that microarchitecture at flit granularity:

* one flit may leave per *physical* output port per cycle;
* a HEAD flit requests an output from the allocation stage (XY routing)
  and, once granted, *locks* the (input, VC) → output pairing — the
  wormhole — until its TAIL flit passes;
* allocation among competing inputs is round-robin for fairness;
* optional **virtual channels** (the paper cites Dally's virtual-channel
  flow control [18]): with ``n_vcs > 1`` each input port holds one
  queue per VC, and worm locks are per-VC, so a blocked worm on one VC
  no longer head-of-line-blocks the physical link for other worms.

Backpressure is cooperative: the router *proposes* moves
(:meth:`Router.arbitrate`), and the network commits each move only when
the downstream queue has space (:meth:`Router.commit_move`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from repro.errors import SimulationError
from repro.noc.flit import Flit
from repro.noc.routing_algos import Port, xy_next_port

__all__ = ["ProposedMove", "Router"]

Coord = Tuple[int, int]
VcKey = Tuple[Port, int]

_PORT_ORDER = [Port.NORTH, Port.EAST, Port.SOUTH, Port.WEST, Port.LOCAL]


@dataclass(frozen=True)
class ProposedMove:
    """One flit movement the allocation stage wants to make this cycle."""

    in_port: Port
    out_port: Port
    flit: Flit
    vc: int = 0


class Router:
    """One grid router with five ports, per-VC in-queues and wormhole
    output locking."""

    def __init__(
        self, coord: Coord, queue_capacity: int = 4, n_vcs: int = 1
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue capacity must be positive")
        if n_vcs < 1:
            raise ValueError("need at least one virtual channel")
        self.coord = coord
        self.queue_capacity = queue_capacity
        self.n_vcs = n_vcs
        self.queues: Dict[VcKey, Deque[Flit]] = {
            (p, vc): deque() for p in _PORT_ORDER for vc in range(n_vcs)
        }
        #: (input, vc) keys with their queues, in round-robin scan order
        self._scan: Tuple[Tuple[VcKey, Deque[Flit]], ...] = tuple(
            self.queues.items()
        )
        self._route_lock: Dict[VcKey, Port] = {}  # (input, vc) -> output
        self._out_owner: Dict[Tuple[Port, int], VcKey] = {}  # (output, vc) -> owner
        self._rr = 0  # round-robin start index for allocation fairness

    # -- queue stage -----------------------------------------------------

    def can_accept(self, port: Port, vc: int = 0) -> bool:
        """Whether the input queue at ``(port, vc)`` has space."""
        return len(self.queues[(port, vc)]) < self.queue_capacity

    def receive(self, port: Port, flit: Flit) -> None:
        """Enqueue an arriving flit on its virtual channel.

        Raises
        ------
        SimulationError
            On overflow — the network must check :meth:`can_accept`
            first — or a flit carrying an unprovisioned VC.
        """
        vc = getattr(flit, "vc", 0)
        if not 0 <= vc < self.n_vcs:
            raise SimulationError(
                f"router {self.coord}: flit on VC {vc} but only "
                f"{self.n_vcs} VCs provisioned"
            )
        if not self.can_accept(port, vc):
            raise SimulationError(
                f"router {self.coord} queue {port.value}/vc{vc} overflow"
            )
        self.queues[(port, vc)].append(flit)

    def queued_flits(self) -> int:
        """Total flits buffered across every (port, VC) input queue —
        the router's contribution to the buffer-depth heatmap."""
        return sum(len(q) for q in self.queues.values())

    # -- allocation stage --------------------------------------------------

    def arbitrate(self) -> List[ProposedMove]:
        """Propose up to one flit per physical output port for this cycle.

        (Input, VC) pairs are scanned in round-robin order.  A locked
        pair always proposes along its lock; an unlocked pair must
        present a HEAD flit (wormhole invariant) and contends for the
        XY output on its own VC.
        """
        moves: List[ProposedMove] = []
        granted_outputs: set = set()
        scan = self._scan
        n = len(scan)
        for i in range(n):
            in_key, q = scan[(self._rr + i) % n]
            if not q:
                continue
            in_port, vc = in_key
            flit = q[0]
            locked = self._route_lock.get(in_key)
            if locked is not None:
                out = locked
            else:
                if not flit.is_head:
                    raise SimulationError(
                        f"router {self.coord}: non-head flit of packet "
                        f"{flit.packet_id} at unlocked input "
                        f"{in_port.value}/vc{vc}"
                    )
                out = xy_next_port(self.coord, flit.dst)
                owner = self._out_owner.get((out, vc))
                if owner is not None and owner != in_key:
                    continue  # this VC of the output held by another worm
            if out in granted_outputs:
                continue  # one flit per physical output per cycle
            granted_outputs.add(out)
            moves.append(ProposedMove(in_port, out, flit, vc))
        return moves

    # -- output stage -----------------------------------------------------

    def commit_move(self, move: ProposedMove) -> Flit:
        """Actually send the proposed flit (the network verified space).

        Updates wormhole locks: HEAD locks the pairing, TAIL releases it.
        """
        in_key = (move.in_port, move.vc)
        q = self.queues[in_key]
        if not q or q[0] is not move.flit:
            raise SimulationError(
                f"router {self.coord}: stale move commit at "
                f"{move.in_port.value}/vc{move.vc}"
            )
        flit = q.popleft()
        out_key = (move.out_port, move.vc)
        if flit.is_head and not flit.is_tail:
            self._route_lock[in_key] = move.out_port
            self._out_owner[out_key] = in_key
        if flit.is_tail:
            self._route_lock.pop(in_key, None)
            if self._out_owner.get(out_key) == in_key:
                del self._out_owner[out_key]
        self._rr = (self._rr + 1) % (len(_PORT_ORDER) * self.n_vcs)
        return flit

    def clear(self) -> int:
        """Drop every queued flit and release all wormhole locks (the
        network's :meth:`~repro.noc.network.RouterNetwork.purge` —
        a retreating worm's flits vanish).  Returns flits dropped."""
        dropped = sum(len(q) for q in self.queues.values())
        for q in self.queues.values():
            q.clear()
        self._route_lock.clear()
        self._out_owner.clear()
        return dropped

    # -- inspection --------------------------------------------------------

    @property
    def is_idle(self) -> bool:
        return all(not q for q in self.queues.values()) and not self._route_lock

    def locked_pairs(self) -> Dict[VcKey, Port]:
        """Live wormhole (input, vc) → output locks (diagnostics)."""
        return dict(self._route_lock)
