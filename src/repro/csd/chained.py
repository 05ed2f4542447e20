"""Chained CSD networks across adaptive processors (paper section 2.6.1).

"The scaling of the AP simply chains the segmented global
interconnection networks, used for finding LRU object(s), the stack
shift, and so on.  Cache hit detection can be centrally processed on the
WSRF instead of searching in the array ...  Searching in WSRFs can be
performed in parallel."

A :class:`ChainedCSD` joins the per-AP network segments of a fused
processor: each segment keeps its own channels, junctions between
adjacent segments are chain/unchain points, and a chaining whose source
and sink fall in different segments occupies the spans in *every*
segment it crosses (plus the junctions).  WSRF search fans out to all
member WSRFs in parallel — one lookup, regardless of scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.errors import (
    ChannelAllocationError,
    ConfigurationError,
    FaultInjectionError,
    TopologyError,
)
from repro.csd.channels import Span
from repro.csd.dynamic_csd import DynamicCSDNetwork
from repro.ap.wsrf import WSRF

__all__ = ["CrossConnection", "ChainedCSD"]


@dataclass(frozen=True)
class CrossConnection:
    """A chaining that may cross segment junctions.

    ``legs`` maps segment index → (channel, span) for every segment in
    which the chaining actually occupies segments.  A terminal sitting
    directly at the junction-adjacent edge of its segment crosses no
    segments there and contributes no leg — a chaining between the two
    objects immediately either side of a junction uses only the
    junction itself and has no legs at all.
    """

    conn_id: int
    source: Tuple[int, int]  # (segment, position)
    sink: Tuple[int, int]
    legs: Dict[int, Tuple[int, Span]]

    @property
    def crosses_junction(self) -> bool:
        return self.source[0] != self.sink[0]


class ChainedCSD:
    """Segmented CSD networks of fused APs, chained at junctions.

    Parameters
    ----------
    segment_sizes:
        Objects per AP segment, in linear order.
    n_channels:
        Channels per segment (default: half the largest segment).
    """

    def __init__(
        self,
        segment_sizes: List[int],
        n_channels: Optional[int] = None,
        faults=None,
    ) -> None:
        if not segment_sizes:
            raise TopologyError("need at least one segment")
        if any(s < 2 for s in segment_sizes):
            raise TopologyError("every segment needs at least two objects")
        if n_channels is None:
            n_channels = max(1, max(segment_sizes) // 2)
        #: Optional :class:`repro.faults.FaultInjector` shared with every
        #: member segment (each under its own ``seg{i}`` fault domain) so
        #: one ledger covers segment faults and junction-switch faults.
        self.faults = faults
        self.segments = [
            DynamicCSDNetwork(
                size, n_channels, faults=faults, fault_domain=f"seg{i}"
            )
            for i, size in enumerate(segment_sizes)
        ]
        if faults is not None:
            # a chaining crosses several segments: derive their fault
            # grids together, on the first filter that needs one
            faults.register_csd_group([
                (net.fault_domain, len(net.pool), net.pool.n_segments)
                for net in self.segments
            ])
        #: junction i joins segment i and i+1; chained when the APs fused.
        self._junction_chained = [True] * (len(segment_sizes) - 1)
        self._conns: Dict[int, CrossConnection] = {}
        self._leg_ids: Dict[int, Dict[int, Tuple[str, int]]] = {}
        self._ids = itertools.count()
        self._leg_counter = itertools.count()

    # -- junction control ---------------------------------------------------

    def unchain_junction(self, index: int) -> None:
        """Split the fused processor between segments index and index+1."""
        self._check_junction(index)
        self._junction_chained[index] = False

    def chain_junction(self, index: int) -> None:
        self._check_junction(index)
        self._junction_chained[index] = True

    def is_junction_chained(self, index: int) -> bool:
        self._check_junction(index)
        return self._junction_chained[index]

    def _check_junction(self, index: int) -> None:
        if not 0 <= index < len(self._junction_chained):
            raise TopologyError(f"no junction {index}")

    # -- chaining ---------------------------------------------------------

    def connect(
        self, source: Tuple[int, int], sink: Tuple[int, int]
    ) -> CrossConnection:
        """Chain ``source=(segment, pos)`` to ``sink=(segment, pos)``.

        A cross-segment chaining needs every junction along the way
        chained, and a free span in every segment it actually crosses:
        from the source to its segment's edge, whole intermediate
        segments, and from the sink's segment edge to the sink.  A
        terminal sitting directly at the junction-adjacent edge crosses
        no segments in its own segment and consumes no channel there.

        Raises
        ------
        TopologyError
            If an intervening junction is unchained (split processors).
        ChannelAllocationError
            If any leg has no free channel (all legs are rolled back).
        """
        s_seg, s_pos = source
        k_seg, k_pos = sink
        self._check_position(source)
        self._check_position(sink)
        if (s_seg, s_pos) == (k_seg, k_pos):
            raise ConfigurationError("source cannot be its own sink")
        lo_seg, hi_seg = min(s_seg, k_seg), max(s_seg, k_seg)
        for j in range(lo_seg, hi_seg):
            if not self._junction_chained[j]:
                raise TopologyError(
                    f"junction {j} is unchained; segments {s_seg} and "
                    f"{k_seg} belong to different processors"
                )
        telemetry.counter("chained.connect.requests").inc()
        tracer = telemetry.tracer()
        tspan = None
        if tracer.enabled:
            tspan = tracer.start(
                "chained.connect", kind="csd",
                source=source, sink=sink,
            )
        legs = self._legs(source, sink)
        made: List[Tuple[int, int, Span, Tuple[str, int]]] = []
        try:
            for seg_idx, span in legs.items():
                net = self.segments[seg_idx]
                surviving = net.pool.free_channels_for(span)
                if self.faults is not None:
                    surviving = self.faults.filter_csd_channels(
                        surviving, span.lo, span.hi,
                        domain=net.fault_domain,
                        n_channels=len(net.pool),
                        n_segments=net.pool.n_segments,
                    )
                granted = net.encoder.grant(surviving)
                if granted is None:
                    if tspan is not None:
                        tspan.add_event(
                            "chained.block", segment=seg_idx,
                            lo=span.lo, hi=span.hi,
                            reason="no free channel in segment",
                        )
                    raise ChannelAllocationError(
                        f"no free channel in segment {seg_idx} for "
                        f"span [{span.lo},{span.hi})"
                    )
                leg_id = ("leg", next(self._leg_counter))
                net.pool[granted].occupy(span, leg_id)
                if tspan is not None:
                    tspan.add_event(
                        "chained.leg.grant", segment=seg_idx,
                        channel=granted, lo=span.lo, hi=span.hi,
                    )
                made.append((seg_idx, granted, span, leg_id))
            # fault hook: the junction switches the chaining crosses can
            # stick; a faulted junction aborts the chaining *after* the
            # legs were occupied, exercising the rollback path below
            if self.faults is not None:
                for j in range(lo_seg, hi_seg):
                    if self.faults.junction_fault(j):
                        telemetry.counter("chained.junction.faults").inc()
                        if tspan is not None:
                            tspan.add_event("chained.junction.fault", junction=j)
                        raise FaultInjectionError(
                            f"junction {j} faulted while chaining "
                            f"{source}->{sink}"
                        )
        except (ChannelAllocationError, FaultInjectionError):
            telemetry.counter("chained.connect.blocks").inc()
            if made:
                telemetry.counter("chained.connect.rollbacks").inc(len(made))
                if tspan is not None:
                    tspan.add_event(
                        "chained.rollback", legs_rolled_back=len(made)
                    )
            for seg_idx, granted, _span, leg_id in made:
                self.segments[seg_idx].pool[granted].release(leg_id)
            if tspan is not None:
                tspan.end(cycle=tracer.advance(), status="error")
            raise
        telemetry.counter("chained.connect.grants").inc()
        conn_id = next(self._ids)
        conn = CrossConnection(
            conn_id,
            source,
            sink,
            {seg: (granted, span) for seg, granted, span, _ in made},
        )
        self._conns[conn_id] = conn
        self._leg_ids[conn_id] = {seg: leg_id for seg, _, _, leg_id in made}
        if tspan is not None:
            tspan.add_event("chained.ack", conn_id=conn_id, legs=len(made))
            tspan.end(cycle=tracer.advance())
        return conn

    def disconnect(self, conn: CrossConnection) -> None:
        """Release every leg of a chaining (the release token)."""
        if conn.conn_id not in self._conns:
            raise ChannelAllocationError(f"unknown connection {conn.conn_id}")
        leg_ids = self._leg_ids[conn.conn_id]
        for seg_idx, (channel, _span) in conn.legs.items():
            self.segments[seg_idx].pool[channel].release(leg_ids[seg_idx])
        del self._conns[conn.conn_id]
        del self._leg_ids[conn.conn_id]
        telemetry.counter("chained.disconnects").inc()

    def _legs(
        self, source: Tuple[int, int], sink: Tuple[int, int]
    ) -> Dict[int, Span]:
        """Per-segment spans for a (possibly cross-segment) chaining."""
        s_seg, s_pos = source
        k_seg, k_pos = sink
        if s_seg == k_seg:
            return {s_seg: Span.between(s_pos, k_pos)}
        (lo_seg, lo_pos), (hi_seg, hi_pos) = sorted([source, sink])
        legs: Dict[int, Span] = {}
        # leg in the low segment: from the position to the high edge; a
        # terminal already at the edge crosses no segments here at all
        lo_n = self.segments[lo_seg].n_objects
        if lo_pos < lo_n - 1:
            legs[lo_seg] = Span(lo_pos, lo_n - 1)
        # whole intermediate segments
        for seg in range(lo_seg + 1, hi_seg):
            legs[seg] = Span(0, self.segments[seg].n_objects - 1)
        # leg in the high segment: from the low edge to the position
        if hi_pos > 0:
            legs[hi_seg] = Span(0, hi_pos)
        return legs

    def _check_position(self, where: Tuple[int, int]) -> None:
        seg, pos = where
        if not 0 <= seg < len(self.segments):
            raise TopologyError(f"no segment {seg}")
        if not 0 <= pos < self.segments[seg].n_objects:
            raise TopologyError(
                f"position {pos} outside segment {seg} of "
                f"{self.segments[seg].n_objects}"
            )

    # -- parallel WSRF search (section 2.6.1) ------------------------------

    def attach_wsrfs(self, wsrfs: List[WSRF]) -> None:
        """Attach one WSRF per segment for central hit detection."""
        if len(wsrfs) != len(self.segments):
            raise ConfigurationError("need exactly one WSRF per segment")
        self._wsrfs = wsrfs

    def parallel_search(self, object_id: int) -> Optional[Tuple[int, int]]:
        """Search every member WSRF in parallel; returns
        ``(segment, position)`` of the hit or ``None``.

        One lookup regardless of processor scale — the §2.6.1 point of
        centralising hit detection in the WSRFs.
        """
        wsrfs = getattr(self, "_wsrfs", None)
        if wsrfs is None:
            raise ConfigurationError("no WSRFs attached")
        for seg_idx, wsrf in enumerate(wsrfs):
            entry = wsrf.lookup(object_id)
            if entry is not None:
                return (seg_idx, entry.position)
        return None

    # -- statistics ------------------------------------------------------

    def total_objects(self) -> int:
        return sum(net.n_objects for net in self.segments)

    def used_channels_per_segment(self) -> List[int]:
        return [net.used_channels() for net in self.segments]

    # -- observation probes ------------------------------------------------

    def junction_states(self) -> List[int]:
        """Chain-switch position per junction: 1 = chained (the fused
        processor spans it), 0 = unchained (split) — §2.6.1's state made
        samplable so a heatmap shows *when* a junction split."""
        return [1 if chained else 0 for chained in self._junction_chained]
