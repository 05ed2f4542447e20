"""Arbitrary regions of clusters (paper section 3.1/3.2).

"The S-topology network supports the ability to unchain (split) the
array into any arbitrary shape that may be formed by connecting the
clusters" — a *region* is an ordered path of grid-adjacent clusters; the
path order is the region's linear (stack) order.  Closing the path back
to its first cluster yields a ring (Figure 5, see
:mod:`repro.topology.rings`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Tuple

from repro.errors import RegionError
from repro.topology.folding import serpentine_fold
from repro.topology.s_topology import STopology
from repro.topology.switches import SwitchState

__all__ = ["Region", "edge_delta", "path_region", "rectangle_region"]

Coord = Tuple[int, int]
Edge = Tuple[Coord, Coord]


@dataclass(frozen=True)
class Region:
    """An ordered, grid-adjacent path of clusters forming one processor.

    Attributes
    ----------
    path:
        Cluster coordinates in linear (stack) order; ``path[0]`` is the
        top of the stack.
    ring:
        Whether the last cluster also chains back to the first
        (Figure 5's ring configurations).
    """

    path: Tuple[Coord, ...]
    ring: bool = False

    def __post_init__(self) -> None:
        if not self.path:
            raise RegionError("a region needs at least one cluster")
        if len(set(self.path)) != len(self.path):
            raise RegionError("a region path may not revisit a cluster")
        for a, b in self.edges():
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                raise RegionError(f"path step {a} -> {b} is not grid-adjacent")
        if self.ring and len(self.path) < 4:
            raise RegionError("a ring needs at least four clusters on a grid")

    def edges(self) -> List[Edge]:
        """The region's directed wiring, one ``(a, b)`` per chain switch
        it programs: the consecutive path pairs in path order, then the
        ring-closing edge when the region is a ring."""
        edges = list(zip(self.path, self.path[1:]))
        if self.ring and len(self.path) > 1:
            edges.append((self.path[-1], self.path[0]))
        return edges

    @property
    def clusters(self) -> FrozenSet[Coord]:
        return frozenset(self.path)

    def __len__(self) -> int:
        return len(self.path)

    def __contains__(self, coord: Coord) -> bool:
        return coord in self.clusters

    def capacity(self, objects_per_cluster: int) -> int:
        """Stack capacity ``C`` of the AP this region forms."""
        if objects_per_cluster < 1:
            raise ValueError("objects per cluster must be positive")
        return len(self.path) * objects_per_cluster

    def chain_on(self, fabric: STopology) -> None:
        """Program the fabric's switches to realise this region."""
        fabric.program(self.edges(), SwitchState.CHAINED)

    def unchain_on(self, fabric: STopology) -> None:
        """Split the region back into released clusters."""
        fabric.program(self.edges(), SwitchState.UNCHAINED)

    def bounding_box(self) -> Tuple[Coord, Coord]:
        """``((min_row, min_col), (max_row, max_col))`` of the region."""
        rows = [r for r, _ in self.path]
        cols = [c for _, c in self.path]
        return (min(rows), min(cols)), (max(rows), max(cols))


def edge_delta(old: Region, new: Region) -> Tuple[List[Edge], List[Edge]]:
    """The directed-edge delta that morphs ``old``'s wiring into
    ``new``'s: ``(removed, added)``, each in its own region's edge order.

    Stack-shift switches are unidirectional, so a reversed segment is
    both removed and added although it touches the same switch pairs.
    The planner prices a move from this delta and the wormhole
    configurator unchains ``removed`` and chains ``added`` — one
    computation, so the price and the stores cannot disagree.
    """
    old_edges, new_edges = old.edges(), new.edges()
    kept = set(old_edges).intersection(new_edges)
    return (
        [edge for edge in old_edges if edge not in kept],
        [edge for edge in new_edges if edge not in kept],
    )


def path_region(path: Sequence[Coord], ring: bool = False) -> Region:
    """Build a region from an explicit path (validates adjacency)."""
    return Region(tuple(path), ring=ring)


def rectangle_region(origin: Coord, height: int, width: int) -> Region:
    """A ``height × width`` rectangle threaded in serpentine stack order,
    with its top-left corner at ``origin`` — the natural up-scaled AP shape.
    """
    if height < 1 or width < 1:
        raise RegionError("rectangle dimensions must be positive")
    r0, c0 = origin
    path = [
        (r0 + r, c0 + c)
        for r, c in (serpentine_fold(i, width) for i in range(height * width))
    ]
    return Region(tuple(path))
