"""Vectorized CSD protocol kernel for mega-scale arrays (N = 1024-4096).

The live protocol (:class:`repro.csd.dynamic_csd.DynamicCSDNetwork`)
models every channel as a Python object holding a dict of ``Span``
dataclasses; one connect request scans every channel's occupant list.
That per-object stepping is what makes Figure 3 intractable at 16x the
paper's largest size.  This kernel resolves the *same grants* on
machine words instead:

* a channel's occupancy is one segment-bitmask integer — bit ``s`` is
  set when a granted span on that channel covers segment ``s``;
* the broadcast of one request ``[lo, hi)`` is the mask
  ``(1 << hi) - (1 << lo)``, and it survives on a channel exactly when
  ``occupancy & mask`` is zero — one word-parallel ``AND`` per channel;
* the sink's priority encoder grants the lowest channel the request
  survives on (Figure 2), so the scan stops at the first surviving
  channel.  First-fit never grants past one above the highest used
  channel, so only the used prefix is kept;
* the AND of each complete group of :data:`GROUP` consecutive masks
  holds the segments busy on every channel of the group, so a request
  that intersects it is skipped past the whole group with one test.
  The scan reads channel masks only in groups it might fit and in the
  incomplete tail: an N=1024, locality-0 trial reads about 10k masks,
  against 161k for a first-fit scan of every used channel.

:class:`VectorCSDKernel` is that first-fit machine, which resolves
every sweep-engine trial (one :meth:`~VectorCSDKernel.grant_many` each,
over ``lo``/``hi`` columns, returning a column of granted channels with
-1 for a block); :func:`attempt_spans` turns a trial's sink and source
columns into its connect attempts, and :class:`VectorSampler`
re-derives the live sampler's probes from the resulting grant log.  The
hypothesis properties in ``tests/megascale/test_kernel.py`` and
``tests/megascale/test_vector_observation.py`` hold both against the
live network.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import List, Tuple

import numpy as np

__all__ = ["VectorCSDKernel", "VectorSampler", "attempt_spans"]

#: Channels per group.  Groups of 4, 8 and 16 each cut the grant time
#: 1.6-1.8x on a fig3-cold round (N=256 and 1024) and 3-7x at N=4096,
#: locality 0; 8 was the fastest on the round.
GROUP = 8


def attempt_spans(
    sinks: np.ndarray, *sources: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The live trial loop's connect attempts, as kernel spans.

    Takes a trial's request columns (a sink column and one column per
    source, as :meth:`~repro.csd.locality.LocalityWorkload.draw` returns
    them) and returns ``(lo, hi, cycles)`` int64 columns: one
    ``[lo, hi)`` span per source of every request, in attempt order (a
    request's sources side by side), and beside each the cycle of its
    request (request index + 1 — the live sampler's clock).  Like the
    live loop, a source equal to its sink makes no attempt.
    """
    sinks = np.asarray(sinks, dtype=np.int64)
    width = len(sources)
    src = np.stack(sources, axis=1).ravel()
    snk = np.repeat(sinks, width)
    cycles = np.repeat(np.arange(1, len(sinks) + 1), width)
    keep = src != snk  # always true by construction
    src, snk = src[keep], snk[keep]
    return np.minimum(src, snk), np.maximum(src, snk), cycles[keep]


class VectorCSDKernel:
    """First-fit grant machine for one ``(n_channels, n_segments)``
    geometry.  Its only state is the per-channel segment bitmasks and
    the AND of each complete group of them; grants accumulate across
    :meth:`grant_many` calls and are never released."""

    def __init__(self, n_channels: int, n_segments: int) -> None:
        if n_channels < 1:
            raise ValueError("need at least one channel")
        if n_segments < 1:
            raise ValueError("need at least one segment")
        self._n_channels = n_channels
        self._n_segments = n_segments
        #: Occupancy of channels ``0 .. highest used``.  First-fit opens
        #: channel ``k`` only when every channel below it blocks, and an
        #: empty channel never blocks, so no mask in the list is zero.
        self._masks: List[int] = []
        #: ``_groups[g]`` is the AND of masks ``GROUP*g .. GROUP*g+GROUP-1``,
        #: one per complete group: a span it overlaps is busy on every
        #: channel of the group.
        self._groups: List[int] = []

    def grant_many(self, lo, hi) -> np.ndarray:
        """Resolve the requests ``[lo[i], hi[i])`` in order.

        Returns an int64 array of each request's granted channel, or -1
        where it is blocked: every provisioned channel is busy somewhere
        on the span, or the span runs off the array (``hi > n_segments``,
        where the live pool has no free channel either).  Every span is
        validated before any is applied, so a malformed one raises with
        the occupancy unchanged.
        """
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be columns of one length")
        if len(lo):
            if lo.min() < 0:
                raise ValueError("span cannot start below segment 0")
            if (hi - lo).min() <= 0:
                i = int(np.argmax(hi <= lo))
                raise ValueError(f"empty or inverted span [{lo[i]}, {hi[i]})")
        n_seg = self._n_segments
        n_channels = self._n_channels
        masks = self._masks
        groups = self._groups
        out: List[int] = []
        # first fit: skip each group the mask is busy on, scan the
        # channels of each group it might fit, then those of the
        # incomplete tail, then open a channel if one is left
        for a, b in zip(lo.tolist(), hi.tolist()):
            if b > n_seg:
                out.append(-1)
                continue
            m = (1 << b) - (1 << a)
            c = -1
            for g, busy in enumerate(groups):
                if busy & m:
                    continue  # every channel of the group blocks
                base = g * GROUP
                for k in range(base, base + GROUP):
                    o = masks[k]
                    if not o & m:
                        masks[k] = o | m
                        groups[g] = reduce(and_, masks[base : base + GROUP])
                        c = k
                        break
                if c >= 0:
                    break
            else:
                for k in range(len(groups) * GROUP, len(masks)):
                    o = masks[k]
                    if not o & m:
                        masks[k] = o | m
                        c = k
                        break
                else:
                    if len(masks) < n_channels:
                        c = len(masks)
                        masks.append(m)
                        if len(masks) % GROUP == 0:
                            groups.append(reduce(and_, masks[-GROUP:]))
            out.append(c)
        return np.array(out, dtype=np.int64)

    def used_channels(self) -> int:
        """Channels holding at least one granted span (no mask is zero)."""
        return len(self._masks)

    def highest_used_channel(self) -> int:
        """Highest granted channel index + 1, or 0 before any grant."""
        return len(self._masks)


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
      (``np.add.at`` on ``lo``/``hi`` + prefix sum), the formula of
      ``ChannelPool.segment_demand``;
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
