"""Non-segmented baseline network (paper section 2.6, the problem case).

"In general the number of channels used for global interconnection
network chaining between a sink and source objects is linearly increased
by the number of physical objects."

Without segmentation every live communication monopolises a whole
channel regardless of how short its span is, so channel demand equals
the number of concurrent communications — for a fully configured
datapath of N objects that is ~N channels.  This baseline exists so the
Figure 3 bench and the channel-budget ablation can show the dynamic
CSD's saving.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ChannelAllocationError

__all__ = ["StaticConnection", "StaticCSDNetwork"]


@dataclass(frozen=True)
class StaticConnection:
    """A whole-channel communication on the static baseline."""

    conn_id: int
    channel: int
    source: int
    sink: int


class StaticCSDNetwork:
    """Baseline: one whole (unsegmented) channel per live communication."""

    def __init__(self, n_objects: int, n_channels: Optional[int] = None) -> None:
        if n_objects < 2:
            raise ValueError("the array needs at least two objects")
        self.n_objects = n_objects
        self.n_channels = n_channels if n_channels is not None else n_objects
        if self.n_channels < 1:
            raise ValueError("need at least one channel")
        self._busy: Dict[int, StaticConnection] = {}  # channel -> connection
        self._ids = itertools.count()

    def connect(self, source: int, sink: int) -> StaticConnection:
        """Claim the lowest free channel outright."""
        for pos in (source, sink):
            if not 0 <= pos < self.n_objects:
                raise ValueError(f"position {pos} outside array of {self.n_objects}")
        if source == sink:
            raise ValueError("source cannot be its own sink")
        for ch in range(self.n_channels):
            if ch not in self._busy:
                conn = StaticConnection(next(self._ids), ch, source, sink)
                self._busy[ch] = conn
                return conn
        raise ChannelAllocationError(
            f"all {self.n_channels} static channels busy"
        )

    def disconnect(self, conn: StaticConnection) -> None:
        if self._busy.get(conn.channel) is not conn:
            raise ChannelAllocationError(f"connection {conn.conn_id} not live")
        del self._busy[conn.channel]

    def used_channels(self) -> int:
        return len(self._busy)
