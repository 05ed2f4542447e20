"""Vectorized CSD protocol kernel for mega-scale arrays (N = 1024-4096).

The live protocol (:class:`repro.csd.dynamic_csd.DynamicCSDNetwork`)
models every channel as a Python object holding a dict of ``Span``
dataclasses; one connect request scans every channel's occupant list.
That per-object stepping is what makes Figure 3 intractable at 16x the
paper's largest size.  This kernel keeps the *same protocol semantics*
on flat numpy arrays instead:

* the pool's occupancy is three parallel arrays — ``lo[i]``, ``hi[i]``,
  ``ch[i]`` — one entry per live span (plus ``owner[i]``, the connection
  token), growing by doubling;
* the broadcast of one request ``[lo, hi)`` is a single vectorized
  overlap test ``(lo_i < hi) & (hi_i > lo)`` scattered into a per-channel
  ``busy`` mask; the priority encoder's first-fit grant is
  ``busy.argmin()`` (numpy's argmin returns the *first* minimum — the
  lowest free channel, exactly the hardware's priority encoder);
* a stack shift adds ``amount`` to the ``lo``/``hi`` columns at once and
  compacts away the rows pushed off the bottom, reporting evictions in
  the live network's order (ascending channel, insertion order within a
  channel).

Everything observable matches the live simulator bit-for-bit — grants,
blocks, eviction order, ``occupancy_state()``, ``segment_demand()`` —
which the hypothesis lockstep property in
``tests/megascale/test_kernel.py`` drives directly against the live
network.

:class:`VectorCSDKernel` is the bare array machine (no telemetry — it
is the sweep engine's only cold path, one :meth:`grant_many` per trial);
:class:`VectorCSDNetwork` wraps it into a drop-in for
``DynamicCSDNetwork`` with the identical counter/event surface.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.errors import ChannelAllocationError
from repro.csd.channels import Span
from repro.csd.dynamic_csd import Connection

__all__ = ["VectorCSDKernel", "VectorCSDNetwork", "VectorSampler"]

#: Initial span-table capacity (rows); the table doubles as needed.
_INITIAL_CAPACITY = 64


class VectorCSDKernel:
    """Span-array occupancy machine for one ``(n_channels, n_segments)``
    geometry.  Owners are integer tokens chosen by the caller (or drawn
    from an internal counter when omitted)."""

    def __init__(self, n_channels: int, n_segments: int) -> None:
        if n_channels < 1:
            raise ValueError("need at least one channel")
        if n_segments < 1:
            raise ValueError("need at least one segment")
        self.n_channels = n_channels
        self.n_segments = n_segments
        cap = _INITIAL_CAPACITY
        self._lo = np.empty(cap, dtype=np.int64)
        self._hi = np.empty(cap, dtype=np.int64)
        self._ch = np.empty(cap, dtype=np.int64)
        self._owner = np.empty(cap, dtype=np.int64)
        self._n = 0  # live rows; rows stay in insertion order
        self._busy = np.empty(n_channels, dtype=bool)
        self._auto_owner = itertools.count()

    # -- growth -------------------------------------------------------------

    def _grow_to(self, min_capacity: int) -> None:
        cap = len(self._lo)
        if min_capacity <= cap:
            return
        while cap < min_capacity:
            cap *= 2
        for name in ("_lo", "_hi", "_ch", "_owner"):
            old = getattr(self, name)
            grown = np.empty(cap, dtype=np.int64)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def _ensure_capacity(self) -> None:
        self._grow_to(self._n + 1)

    # -- the protocol -------------------------------------------------------

    def _busy_mask(self, lo: int, hi: int) -> np.ndarray:
        """Per-channel mask: True where some live span overlaps [lo, hi)."""
        busy = self._busy
        busy[:] = False
        n = self._n
        if n:
            overlap = self._lo[:n] < hi
            np.logical_and(overlap, self._hi[:n] > lo, out=overlap)
            busy[self._ch[:n][overlap]] = True
        return busy

    def _check_span(self, lo: int, hi: int) -> None:
        if lo < 0:
            raise ValueError("span cannot start below segment 0")
        if hi <= lo:
            raise ValueError(f"empty or inverted span [{lo}, {hi})")

    def first_free(self, lo: int, hi: int) -> Optional[int]:
        """The priority-encoder grant for ``[lo, hi)`` — the lowest
        channel the broadcast survives on — or ``None`` when blocked."""
        self._check_span(lo, hi)
        if hi > self.n_segments:
            # the live pool reports no free channel for a span that runs
            # off the array (is_span_free is False on every channel)
            return None
        busy = self._busy_mask(lo, hi)
        granted = int(busy.argmin())  # first False == lowest free channel
        return None if busy[granted] else granted

    def survivors(self, lo: int, hi: int) -> List[int]:
        """Every channel the broadcast survives on, ascending — the
        ``free_channels_for`` twin (input to the fault filter)."""
        self._check_span(lo, hi)
        if hi > self.n_segments:
            return []
        busy = self._busy_mask(lo, hi)
        return [int(c) for c in np.flatnonzero(~busy)]

    def occupy(
        self, channel: int, lo: int, hi: int, owner: Optional[int] = None
    ) -> int:
        """Claim ``[lo, hi)`` on ``channel`` for ``owner``; returns the
        owner token.  The caller must have established the span is free
        (via :meth:`first_free` / :meth:`survivors`)."""
        if owner is None:
            owner = next(self._auto_owner)
        self._ensure_capacity()
        i = self._n
        self._lo[i] = lo
        self._hi[i] = hi
        self._ch[i] = channel
        self._owner[i] = owner
        self._n = i + 1
        return owner

    def grant(
        self, lo: int, hi: int, owner: Optional[int] = None
    ) -> Optional[int]:
        """One full request: broadcast, first-fit grant, occupy.  Returns
        the granted channel, or ``None`` when every channel is busy on
        the span (the caller counts the block)."""
        granted = self.first_free(lo, hi)
        if granted is not None:
            self.occupy(granted, lo, hi, owner)
        return granted

    def _broadcast_masks(self) -> List[int]:
        """Current occupancy as one segment-bitmask integer per channel,
        trimmed to the highest used channel (channels past the end of
        the list are known idle).  Bit ``s`` of ``masks[c]`` is set when
        some live span on channel ``c`` covers segment ``s`` — the
        request broadcast of Figure 2 as machine words."""
        n = self._n
        top = int(self._ch[:n].max()) + 1 if n else 0
        masks = [0] * top
        for i in range(n):
            masks[int(self._ch[i])] |= (1 << int(self._hi[i])) - (
                1 << int(self._lo[i])
            )
        return masks

    def grant_many(self, spans) -> List[Optional[int]]:
        """Resolve a whole sequence of ``(lo, hi)`` requests in order.

        The grants, occupancy growth, and owner sequence are identical to
        ``[self.grant(lo, hi) for lo, hi in spans]``; the one semantic
        difference is that span validation runs up front, so a malformed
        span raises *before* any request is applied.

        The request loop runs on segment-bitmask integers instead of the
        span table: one request is one mask ``(1 << hi) - (1 << lo)``,
        one channel's broadcast test is a single word-parallel ``AND``,
        and the first-fit scan stops at the first idle word — so the scan
        is bounded by the *used* channel count, not the provisioned one.
        (A first-fit grant beyond the highest used channel must land
        exactly there, which is why the trimmed mask list of
        :meth:`_broadcast_masks` loses nothing.)  The span table is
        batch-appended at the end, keeping it the single source of truth
        for :meth:`shift` / :meth:`release` / the statistics surface.
        """
        spans = [(int(lo), int(hi)) for lo, hi in spans]
        for lo, hi in spans:
            if lo < 0:
                raise ValueError("span cannot start below segment 0")
            if hi <= lo:
                raise ValueError(f"empty or inverted span [{lo}, {hi})")
        out: List[Optional[int]] = []
        append = out.append
        n_seg = self.n_segments
        nch = self.n_channels
        occ = self._broadcast_masks()
        grow = occ.append
        grants: List[Tuple[int, int, int]] = []
        for lo, hi in spans:
            if hi > n_seg:
                append(None)
                continue
            m = (1 << hi) - (1 << lo)
            g = -1
            for c, o in enumerate(occ):
                if not (o & m):
                    g = c
                    break
            else:
                if len(occ) < nch:
                    g = len(occ)
                    grow(0)
            if g < 0:
                append(None)
            else:
                occ[g] |= m
                grants.append((lo, hi, g))
                append(g)
        k = len(grants)
        if k:
            n0 = self._n
            self._grow_to(n0 + k)
            self._lo[n0 : n0 + k] = [t[0] for t in grants]
            self._hi[n0 : n0 + k] = [t[1] for t in grants]
            self._ch[n0 : n0 + k] = [t[2] for t in grants]
            next_owner = self._auto_owner.__next__
            self._owner[n0 : n0 + k] = [next_owner() for _ in range(k)]
            self._n = n0 + k
        return out

    def release(self, owner: int) -> None:
        """Release ``owner``'s span (the release-token path).

        Raises
        ------
        ChannelAllocationError
            When ``owner`` holds nothing.
        """
        n = self._n
        matches = np.flatnonzero(self._owner[:n] == owner)
        if len(matches) == 0:
            raise ChannelAllocationError(f"owner {owner!r} holds nothing")
        self._compact(np.delete(np.arange(n), matches))

    def shift(self, amount: int) -> List[int]:
        """Stack-shift every span ``amount`` positions down; evict spans
        pushed off the bottom (shifted ``hi`` beyond ``n_segments``).

        Returns the evicted owners in the live network's order:
        ascending channel index, insertion order within a channel —
        exactly what ``ChannelPool`` iteration + ``Channel.shift_all``
        produces.
        """
        if amount < 0:
            raise ValueError("the stack only shifts top -> bottom")
        n = self._n
        if amount == 0 or n == 0:
            return []
        self._lo[:n] += amount
        self._hi[:n] += amount
        evict = self._hi[:n] > self.n_segments
        if not evict.any():
            return []
        rows = np.flatnonzero(evict)
        # rows are in insertion order; a stable sort by channel yields
        # (channel asc, insertion order within channel)
        ordered = rows[np.argsort(self._ch[rows], kind="stable")]
        evicted = [int(o) for o in self._owner[ordered]]
        self._compact(np.flatnonzero(~evict))
        return evicted

    def _compact(self, keep_rows: np.ndarray) -> None:
        """Retain only ``keep_rows`` (ascending), preserving insertion
        order — the row order *is* each channel's occupation order."""
        m = len(keep_rows)
        for name in ("_lo", "_hi", "_ch", "_owner"):
            arr = getattr(self, name)
            arr[:m] = arr[keep_rows]
        self._n = m

    # -- statistics (all bit-compatible with the live network) --------------

    def span_count(self) -> int:
        return self._n

    def used_channels(self) -> int:
        n = self._n
        return int(np.count_nonzero(np.bincount(self._ch[:n]))) if n else 0

    def highest_used_channel(self) -> int:
        n = self._n
        return int(self._ch[:n].max()) + 1 if n else 0

    def occupancy_state(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Canonical pool occupancy, identical to
        :meth:`repro.csd.dynamic_csd.DynamicCSDNetwork.occupancy_state`."""
        n = self._n
        per_channel: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.n_channels)
        ]
        for i in range(n):
            per_channel[int(self._ch[i])].append(
                (int(self._lo[i]), int(self._hi[i]))
            )
        return tuple(tuple(sorted(spans)) for spans in per_channel)

    def segment_demand(self) -> List[int]:
        """Channels occupying each segment position (difference array +
        prefix sum, identical to ``ChannelPool.segment_demand``)."""
        n = self._n
        diff = np.zeros(self.n_segments + 1, dtype=np.int64)
        if n:
            np.add.at(diff, self._lo[:n], 1)
            np.add.at(diff, self._hi[:n], -1)
        return [int(v) for v in np.cumsum(diff[:-1])]

    def channel_occupancy(self) -> List[int]:
        """Occupied-segment count per channel index."""
        n = self._n
        counts = np.zeros(self.n_channels, dtype=np.int64)
        if n:
            np.add.at(counts, self._ch[:n], self._hi[:n] - self._lo[:n])
        return [int(v) for v in counts]


class VectorSampler:
    """Derives the live :class:`~repro.telemetry.observe.Sampler`'s CSD
    fabric probes from a trial's flat grant log instead of a live network.

    The live Figure-3 trial ticks a sampler once per chaining request and,
    at every ``stride``-aligned cycle, snapshots ``segment_demand()`` /
    ``channel_occupancy()`` (one heatmap column each) plus the
    used-channel count (a time-series sample).  Both probes are pure
    functions of *which spans have been granted so far* — blocked
    requests never touch occupancy — so a grant log of
    ``(cycle, lo, hi, channel)`` rows in grant order reconstructs every
    probe reading exactly:

    * segment demand is the difference array of the applied spans
      (``np.add.at`` on ``lo``/``hi`` + prefix sum), the same formula
      ``ChannelPool.segment_demand`` and :meth:`VectorCSDKernel.segment_demand`
      share;
    * channel occupancy is ``hi - lo`` scattered per granted channel;
    * the used-channel count is the number of channels with at least one
      applied span.

    :meth:`replay` walks the sample cycles in ascending order, applies the
    grants that landed since the previous sample (``np.searchsorted`` on
    the log's cycle column), and emits the identical ``record()``/``add()``
    calls in the identical order (series first, then segment rows
    ``s0..s{S-1}``, then channel rows ``ch0..ch{C-1}``) — so ring-buffer
    eviction and heatmap cell-cap ``dropped`` tallies also match the live
    path byte for byte.  The lockstep property in
    ``tests/megascale/test_vector_observation.py`` drives this identity.
    """

    __slots__ = ("n_segments", "n_channels", "stride", "samples_taken")

    def __init__(self, n_segments: int, n_channels: int, stride: int) -> None:
        if n_segments < 1:
            raise ValueError("need at least one segment")
        if n_channels < 1:
            raise ValueError("need at least one channel")
        if stride < 1:
            raise ValueError("stride must be at least one cycle")
        self.n_segments = n_segments
        self.n_channels = n_channels
        self.stride = stride
        self.samples_taken = 0

    def replay(
        self,
        cycles: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        ch: np.ndarray,
        n_cycles: int,
        segment_heatmap,
        channel_heatmap,
        series=None,
    ) -> None:
        """Emit every stride-aligned sample in ``[stride, n_cycles]``.

        ``cycles`` must be non-decreasing (grant order); ``segment_heatmap``
        / ``channel_heatmap`` take ``add(row, cycle, value)`` and ``series``
        (optional) takes ``record(cycle, value)`` — the
        :class:`~repro.telemetry.observe.Heatmap` / ``TimeSeries`` surface.
        """
        seg_rows = [f"s{i}" for i in range(self.n_segments)]
        ch_rows = [f"ch{i}" for i in range(self.n_channels)]
        diff = np.zeros(self.n_segments + 1, dtype=np.int64)
        occ = np.zeros(self.n_channels, dtype=np.int64)
        spans_per_ch = np.zeros(self.n_channels, dtype=np.int64)
        used = 0
        applied = 0
        for cycle in range(self.stride, n_cycles + 1, self.stride):
            upto = int(np.searchsorted(cycles, cycle, side="right"))
            if upto > applied:
                sl = slice(applied, upto)
                np.add.at(diff, lo[sl], 1)
                np.add.at(diff, hi[sl], -1)
                np.add.at(occ, ch[sl], hi[sl] - lo[sl])
                for granted in ch[sl]:
                    g = int(granted)
                    if spans_per_ch[g] == 0:
                        used += 1
                    spans_per_ch[g] += 1
                applied = upto
            if series is not None:
                series.record(cycle, float(used))
            demand = np.cumsum(diff[:-1])
            for i, row in enumerate(seg_rows):
                segment_heatmap.add(row, cycle, int(demand[i]))
            for i, row in enumerate(ch_rows):
                channel_heatmap.add(row, cycle, int(occ[i]))
            self.samples_taken += 1


class VectorCSDNetwork:
    """Drop-in twin of :class:`repro.csd.dynamic_csd.DynamicCSDNetwork`
    running on a :class:`VectorCSDKernel`.

    Same constructor, same protocol methods, same exceptions, same
    counters and events (``csd.connect.*``, ``csd.block``, ``csd.shifts``,
    ``csd.shift.evictions``, ``csd.disconnects``), same
    :class:`Connection` records with the same id sequence.  The one
    deliberate gap: no tracer spans — the vector path exists for
    *untraced* mega-scale sweeps, and the engine never routes traced runs
    through it (tracing forces the live simulator).
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
        self.n_channels = n_channels
        self.faults = faults
        self.fault_domain = fault_domain
        self._kernel = VectorCSDKernel(n_channels, n_objects - 1)
        self._connections: Dict[int, Connection] = {}
        self._ids = itertools.count()

    # -- the Figure 2 protocol ----------------------------------------------

    def connect(self, source: int, sink: int) -> Connection:
        return self.connect_fanout(source, (sink,))

    def connect_fanout(self, source: int, sinks: Tuple[int, ...]) -> Connection:
        if not sinks:
            raise ValueError("fan-out needs at least one sink")
        for pos in (source, *sinks):
            if not 0 <= pos < self.n_objects:
                raise ValueError(
                    f"position {pos} outside array of {self.n_objects}"
                )
        if source in sinks:
            raise ValueError("source cannot be its own sink")
        lo = min(source, *sinks)
        hi = max(source, *sinks)

        telemetry.counter("csd.connect.requests").inc()
        if self.faults is not None:
            surviving = self._kernel.survivors(lo, hi)
            healthy = self.faults.filter_csd_channels(
                surviving, lo, hi, domain=self.fault_domain
            )
            if len(healthy) < len(surviving):
                telemetry.counter("csd.connect.fault_drops").inc(
                    len(surviving) - len(healthy)
                )
            granted = healthy[0] if healthy else None
        else:
            granted = self._kernel.first_free(lo, hi)
        if granted is None:
            telemetry.counter("csd.connect.blocks").inc()
            telemetry.event("csd.block", lo=lo, hi=hi)
            raise ChannelAllocationError(
                f"no free channel for span [{lo},{hi}) "
                f"({self.n_channels} channels provisioned)"
            )
        conn_id = next(self._ids)
        self._kernel.occupy(granted, lo, hi, conn_id)
        telemetry.counter("csd.connect.grants").inc()
        conn = Connection(conn_id, granted, source, tuple(sinks), Span(lo, hi))
        self._connections[conn_id] = conn
        return conn

    def disconnect(self, conn: Connection) -> None:
        if conn.conn_id not in self._connections:
            raise ChannelAllocationError(f"unknown connection {conn.conn_id}")
        self._kernel.release(conn.conn_id)
        del self._connections[conn.conn_id]
        telemetry.counter("csd.disconnects").inc()

    # -- stack shift ---------------------------------------------------------

    def stack_shift(self, amount: int = 1) -> List[Connection]:
        if amount < 0:
            raise ValueError("the stack only shifts top -> bottom")
        if amount == 0:
            return []
        telemetry.counter("csd.shifts").inc()
        evicted = [
            self._connections.pop(owner) for owner in self._kernel.shift(amount)
        ]
        if evicted:
            telemetry.counter("csd.shift.evictions").inc(len(evicted))
            telemetry.instant(
                "csd.shift.evictions", amount=amount, count=len(evicted)
            )
        for conn_id, conn in list(self._connections.items()):
            self._connections[conn_id] = Connection(
                conn_id,
                conn.channel,
                conn.source + amount,
                tuple(s + amount for s in conn.sinks),
                conn.span.shifted(amount),
            )
        return evicted

    # -- statistics ----------------------------------------------------------

    @property
    def connections(self) -> Tuple[Connection, ...]:
        return tuple(self._connections.values())

    def used_channels(self) -> int:
        return self._kernel.used_channels()

    def highest_used_channel(self) -> int:
        return self._kernel.highest_used_channel()

    def occupancy_state(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        return self._kernel.occupancy_state()

    # -- observation probes --------------------------------------------------

    def segment_demand(self) -> List[int]:
        return self._kernel.segment_demand()

    def channel_occupancy(self) -> List[int]:
        return self._kernel.channel_occupancy()
