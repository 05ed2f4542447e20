"""Closed-form schedule of a single wormhole worm on an idle XY grid.

A configuration worm travelling alone through a pristine router network
is fully deterministic: no contention, no faults, no virtual-channel
competition.  Its cycle-level behaviour collapses to arithmetic in the
hop count ``h``, the flit count ``nf``, and the per-router input-queue
capacity ``qcap``:

* with queue room (``qcap >= 2``) — or a zero-hop worm, which ejects
  straight from its own source router — the worm pipelines perfectly:
  one flit ejects per cycle once the head arrives, so flit ``i`` ejects
  at cycle ``h + i`` and nothing ever stalls;
* with single-slot queues (``qcap == 1``) and at least one hop, a body
  flit can only advance into a slot that is *already* empty when its
  router commits — and the simulator commits routers in row-major
  order, so whether the slot vacated this same cycle is visible depends
  on the route's direction through the grid.  Worst case (routes toward
  higher row-major coordinates) is strict stop-and-wait: flit ``i``
  ejects at ``h + 2*i`` with ``nf - 1`` stalls; best case (decreasing
  routes) pipelines like ``qcap >= 2``.  Because the outcome depends on
  an iteration-order detail rather than protocol state, the schedule
  reports itself :attr:`WormSchedule.exact` = False there and callers
  fall back to cycle stepping.

In the exact regimes every flit makes exactly ``h + 1`` movements
(``h`` link traversals plus the ejection), and the network needs one
extra cycle after the last ejection to observe it has drained.

The exact-regime formulas are cross-validated against the live
:class:`repro.noc.network.RouterNetwork` over every (src, dst) pair of a
6x6 grid x flit counts x queue capacities; the identity test grid lives
in ``tests/megascale/test_noc_kernel.py``.  This module is pure math —
no simulator imports — so the network can consult it lazily without a
layering cycle.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["WormSchedule", "worm_schedule"]


class WormSchedule:
    """The deterministic timeline of one solo worm (all values are
    cycle offsets from the injection cycle)."""

    __slots__ = ("hops", "n_flits", "qcap", "eject_step", "delivered_at",
                 "drain_at", "flit_moves", "stalls", "exact")

    def __init__(self, hops: int, n_flits: int, qcap: int) -> None:
        self.hops = hops
        self.n_flits = n_flits
        self.qcap = qcap
        #: Whether this schedule is guaranteed bit-identical to cycle
        #: stepping.  Single-slot queues with a multi-flit, multi-hop
        #: worm are route-direction-dependent (see the module docstring)
        #: and must run on the live simulator.
        self.exact = qcap >= 2 or n_flits == 1 or hops == 0
        #: Cycles between consecutive ejections (2 iff single-slot
        #: queues force the worst-case stop-and-wait regime).
        self.eject_step = 2 if (qcap == 1 and hops >= 1) else 1
        #: Cycle offset at which the tail flit ejects.
        self.delivered_at = hops + self.eject_step * (n_flits - 1)
        #: Cycle offset at which ``run_until_drained`` stops (one idle
        #: cycle past the last ejection).
        self.drain_at = self.delivered_at + 1
        #: Total flit movements: every flit hops ``h`` links + 1 eject.
        self.flit_moves = n_flits * (hops + 1)
        #: Stall observations (body flits waiting on single-slot queues).
        self.stalls = (n_flits - 1) if self.eject_step == 2 else 0

    def eject_offsets(self) -> Tuple[int, ...]:
        """Cycle offset of each flit's ejection, in flit order."""
        return tuple(
            self.hops + self.eject_step * i for i in range(self.n_flits)
        )


def worm_schedule(
    src: Tuple[int, int], dst: Tuple[int, int], n_flits: int, qcap: int
) -> WormSchedule:
    """Schedule a worm of ``n_flits`` flits from ``src`` to ``dst`` under
    XY routing with per-router queue capacity ``qcap``."""
    if n_flits < 1:
        raise ValueError("a worm needs at least one flit")
    if qcap < 1:
        raise ValueError("queue capacity must be positive")
    hops = abs(src[0] - dst[0]) + abs(src[1] - dst[1])
    return WormSchedule(hops, n_flits, qcap)
