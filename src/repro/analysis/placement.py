"""Placement analysis: chaining distance in Manhattan terms (abstract, §4).

"We analyzed the cost in terms of the available number of clusters ...
and delay in Manhattan-distance of the chip" — this module makes that
analysis available for *actual* placements: objects of a configured
datapath are laid along a region's linear (stack) order, every chaining
gets a physical Manhattan length on the cluster grid, and lengths
convert to RC delays through the §4 wire model.

The punchline the paper builds on: on the folded linear array, a
dependency of distance *d* in the stream is at most *d* clusters away
on silicon, so locality in the object code is locality in metal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.ap.config_stream import ConfigStream
from repro.costmodel.wire_delay import WireParameters, elmore_delay_s
from repro.topology.metrics import manhattan
from repro.topology.regions import Region

__all__ = ["PlacedChain", "PlacementReport", "analyze_placement"]

Coord = Tuple[int, int]


@dataclass(frozen=True)
class PlacedChain:
    """One source→sink chaining with its physical geometry."""

    source_id: int
    sink_id: int
    source_cluster: Coord
    sink_cluster: Coord

    @property
    def manhattan_clusters(self) -> int:
        return manhattan(self.source_cluster, self.sink_cluster)


@dataclass(frozen=True)
class PlacementReport:
    """Geometry statistics of one datapath placed on one region."""

    chains: Tuple[PlacedChain, ...]
    objects_per_cluster: int

    @property
    def max_distance(self) -> int:
        return max((c.manhattan_clusters for c in self.chains), default=0)

    @property
    def mean_distance(self) -> float:
        if not self.chains:
            return 0.0
        return float(np.mean([c.manhattan_clusters for c in self.chains]))

    @property
    def local_fraction(self) -> float:
        """Fraction of chains staying within one cluster (distance 0)."""
        if not self.chains:
            return 1.0
        return sum(1 for c in self.chains if c.manhattan_clusters == 0) / len(
            self.chains
        )

    def critical_delay_ns(
        self, params: WireParameters, cluster_pitch_um: float
    ) -> float:
        """RC delay of the longest chain: Manhattan distance × cluster
        pitch through the §4 wire model."""
        if cluster_pitch_um <= 0:
            raise ValueError("cluster pitch must be positive")
        length_um = self.max_distance * cluster_pitch_um
        if length_um == 0:
            return 0.0
        return elmore_delay_s(params, length_um) * 1e9


def analyze_placement(
    stream: ConfigStream,
    region: Region,
    objects_per_cluster: int = 16,
) -> PlacementReport:
    """Place a configuration stream's objects along a region and measure
    every chaining's Manhattan distance.

    Placement follows the stack discipline: objects occupy linear
    positions in first-reference order (each new object enters the
    array; the fold maps linear position → cluster).

    Raises
    ------
    ValueError
        If the datapath needs more objects than the region holds.
    """
    if objects_per_cluster < 1:
        raise ValueError("objects per cluster must be positive")
    # assign linear positions in first-reference order
    position: Dict[int, int] = {}
    for element in stream:
        for oid in element.referenced_ids:
            if oid not in position:
                position[oid] = len(position)
    capacity = len(region) * objects_per_cluster
    if len(position) > capacity:
        raise ValueError(
            f"datapath of {len(position)} objects exceeds the region's "
            f"{capacity} object slots"
        )

    def cluster_of(oid: int) -> Coord:
        return region.path[position[oid] // objects_per_cluster]

    chains: List[PlacedChain] = []
    for element in stream:
        for src in element.sources:
            if src not in position:
                continue  # references an object outside this datapath
            chains.append(
                PlacedChain(
                    source_id=src,
                    sink_id=element.sink,
                    source_cluster=cluster_of(src),
                    sink_cluster=cluster_of(element.sink),
                )
            )
    return PlacementReport(tuple(chains), objects_per_cluster)
