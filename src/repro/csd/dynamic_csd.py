"""The dynamic CSD network protocol (paper Figure 2, section 2.6.2).

One chaining proceeds as:

1. the **source** object broadcasts a request on every channel; the
   request only survives on channels whose single-hop segments along the
   source→sink span are still chained (not occupied by another
   communication);
2. the **sink**'s priority encoder grants one surviving channel;
3. the grant is stored in a memory cell that (a) unchains the request
   network and (b) gates data from the granted channel into the sink;
4. the grant travels back to the source as the acknowledgement.

The network also supports the stack shift: because every segment is a
single hop, shifting *all* objects down the stack shifts every occupied
span uniformly — no channel re-selection is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.errors import ChannelAllocationError
from repro.csd.channels import ChannelPool, Span
from repro.csd.priority_encoder import PriorityEncoder

__all__ = ["Connection", "DynamicCSDNetwork"]


@dataclass(frozen=True)
class Connection:
    """A granted chaining between a source and one or more sinks.

    Attributes
    ----------
    conn_id:
        Unique token; doubles as the channel-occupancy owner key.
    channel:
        Granted channel index (output of the sink's priority encoder).
    source, sinks:
        Object positions in the linear array.  A fan-out (broadcast)
        connection has several sinks sharing the one channel span.
    span:
        The segment interval the connection occupies.
    """

    conn_id: int
    channel: int
    source: int
    sinks: Tuple[int, ...]
    span: Span

    @property
    def sink(self) -> int:
        """The (first) sink — convenience for point-to-point connections."""
        return self.sinks[0]


class DynamicCSDNetwork:
    """A dynamic CSD network over a linear array of ``n_objects`` objects.

    Parameters
    ----------
    n_objects:
        Length of the linear (stack) array the network runs along.
    n_channels:
        Physical channel count.  The paper's finding (Figure 3) is that
        ``n_objects // 2`` suffices for random datapaths; passing
        ``None`` provisions that.
    """

    def __init__(
        self,
        n_objects: int,
        n_channels: Optional[int] = None,
        faults=None,
        fault_domain: str = "csd",
    ) -> None:
        if n_objects < 2:
            raise ValueError("the array needs at least two objects")
        if n_channels is None:
            n_channels = max(1, n_objects // 2)
        if n_channels < 1:
            raise ValueError("need at least one channel")
        self.n_objects = n_objects
        self.pool = ChannelPool(n_channels, n_segments=n_objects - 1)
        self.encoder = PriorityEncoder(n_channels)
        #: Optional :class:`repro.faults.FaultInjector`; when set, the
        #: request broadcast also dies on channels whose segments along
        #: the span carry an active injected fault.
        self.faults = faults
        self.fault_domain = fault_domain
        self._connections: Dict[int, Connection] = {}
        self._ids = itertools.count()

    # -- the Figure 2 protocol ------------------------------------------------

    def connect(self, source: int, sink: int) -> Connection:
        """Chain ``source`` to ``sink`` (steps 1-4 of the protocol).

        Raises
        ------
        ChannelAllocationError
            When no channel survives the broadcast (all spans busy).
        ValueError
            On out-of-range or equal positions.
        """
        return self.connect_fanout(source, (sink,))

    def connect_fanout(self, source: int, sinks: Tuple[int, ...]) -> Connection:
        """Chain ``source`` to several sinks on one channel.

        "the necessity of a fan-out (broadcast) requires more channels,
        i.e., up to Nobject channels" — a broadcast occupies the span
        covering the source and every sink, so it consumes more segments
        of its one channel than a point-to-point chaining would.
        """
        if not sinks:
            raise ValueError("fan-out needs at least one sink")
        for pos in (source, *sinks):
            if not 0 <= pos < self.n_objects:
                raise ValueError(f"position {pos} outside array of {self.n_objects}")
        if source in sinks:
            raise ValueError("source cannot be its own sink")
        lo = min(source, *sinks)
        hi = max(source, *sinks)
        span = Span(lo, hi)

        telemetry.counter("csd.connect.requests").inc()
        tracer = telemetry.tracer()
        tspan = None
        if tracer.enabled:
            # one chaining = one cycle of the tracer's logical clock
            tspan = tracer.start(
                "csd.connect", kind="csd", source=source,
                sinks=tuple(sinks), lo=span.lo, hi=span.hi,
            )
            tspan.add_event("csd.request", channels=len(self.pool))
        # step 1: broadcast — which channels does the request survive on?
        surviving = self.pool.free_channels_for(span)
        # fault hook: the request also dies on channels with an active
        # segment fault along the span (transient faults heal; retry via
        # repro.faults.recovery re-broadcasts after a backoff)
        if self.faults is not None:
            healthy = self.faults.filter_csd_channels(
                surviving, span.lo, span.hi, domain=self.fault_domain
            )
            if len(healthy) < len(surviving):
                telemetry.counter("csd.connect.fault_drops").inc(
                    len(surviving) - len(healthy)
                )
                if tspan is not None:
                    tspan.add_event(
                        "csd.fault.channels_dropped",
                        dropped=len(surviving) - len(healthy),
                    )
            surviving = healthy
        # step 2: the sink's priority encoder grants one
        granted = self.encoder.grant(surviving)
        if granted is None:
            telemetry.counter("csd.connect.blocks").inc()
            telemetry.event("csd.block", lo=span.lo, hi=span.hi)
            if tspan is not None:
                tspan.add_event(
                    "csd.block", lo=span.lo, hi=span.hi,
                    reason="all channels busy on span",
                )
                tspan.end(cycle=tracer.advance(), status="error")
            raise ChannelAllocationError(
                f"no free channel for span [{span.lo},{span.hi}) "
                f"({len(self.pool)} channels provisioned)"
            )
        # step 3: store the grant (occupy the span; gates the data path)
        conn_id = next(self._ids)
        self.pool[granted].occupy(span, conn_id)
        telemetry.counter("csd.connect.grants").inc()
        # step 4: ack back to the source — the connection object
        conn = Connection(conn_id, granted, source, tuple(sinks), span)
        self._connections[conn_id] = conn
        if tspan is not None:
            tspan.add_event("csd.grant", channel=granted)
            tspan.add_event("csd.ack", conn_id=conn_id)
            tspan.end(cycle=tracer.advance())
        return conn

    def disconnect(self, conn: Connection) -> None:
        """Fire the release token: re-chain the segments for reuse."""
        if conn.conn_id not in self._connections:
            raise ChannelAllocationError(f"unknown connection {conn.conn_id}")
        self.pool[conn.channel].release(conn.conn_id)
        del self._connections[conn.conn_id]
        telemetry.counter("csd.disconnects").inc()

    # -- stack shift -----------------------------------------------------

    def stack_shift(self, amount: int = 1) -> List[Connection]:
        """Shift every live connection ``amount`` positions down the stack.

        Convention (shared with :meth:`repro.csd.channels.Channel.shift_all`):
        position 0 is the **top** of the stack and position ``n_objects-1``
        the **bottom**, so a shift down the stack *increases* every
        position/segment index by ``amount``.  A connection is evicted
        exactly when its objects leave the array off the bottom — i.e.
        when its shifted span would need a segment at index
        ``n_segments`` or beyond.  Evicted connections are returned.
        Section 2.6.2: no channel re-selection happens — each surviving
        span slides along its own channel.
        """
        if amount < 0:
            raise ValueError("the stack only shifts top -> bottom")
        if amount == 0:
            return []
        telemetry.counter("csd.shifts").inc()
        evicted: List[Connection] = []
        for channel in self.pool:
            for conn_id in channel.shift_all(amount):
                evicted.append(self._connections.pop(conn_id))
        if evicted:
            telemetry.counter("csd.shift.evictions").inc(len(evicted))
            telemetry.instant(
                "csd.shift.evictions", amount=amount, count=len(evicted)
            )
        # rebuild surviving connection records with shifted positions
        for conn_id, conn in list(self._connections.items()):
            new_span = self.pool[conn.channel].span_of(conn_id)
            assert new_span is not None
            self._connections[conn_id] = Connection(
                conn_id,
                conn.channel,
                conn.source + amount,
                tuple(s + amount for s in conn.sinks),
                new_span,
            )
        return evicted

    # -- statistics ------------------------------------------------------

    @property
    def connections(self) -> Tuple[Connection, ...]:
        return tuple(self._connections.values())

    def used_channels(self) -> int:
        """Channels carrying at least one live connection (Fig. 3 metric)."""
        return self.pool.used_channel_count()

    def highest_used_channel(self) -> int:
        """Highest granted channel index + 1, or 0 when idle.

        With a first-fit priority encoder this equals the minimum channel
        provisioning that would have sufficed for the current state.
        """
        used = [ch.index for ch in self.pool if not ch.is_idle]
        return max(used) + 1 if used else 0

    def occupancy_state(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Canonical immutable pool occupancy: one tuple per channel of
        its occupied ``(lo, hi)`` spans, sorted.

        Exposed so tests can cross-check the vector kernel
        (:meth:`repro.megascale.kernel.VectorCSDKernel.occupancy_state`)
        against the live protocol step by step.
        """
        return tuple(
            tuple(sorted((s.lo, s.hi) for s in ch.spans()))
            for ch in self.pool
        )

    # -- observation probes ------------------------------------------------

    def segment_demand(self) -> List[int]:
        """Channel demand per segment position along the linear array
        (see :meth:`repro.csd.channels.ChannelPool.segment_demand`)."""
        return self.pool.segment_demand()

    def channel_occupancy(self) -> List[int]:
        """Occupied-segment count per channel index."""
        return self.pool.channel_occupancy()
