"""Baseline 2-D mesh topology (paper section 5 comparator).

"a mesh topology has recently become a popular alternative ... very
simple and completely scalable and relocatable.  It also has an abundant
bisection bandwidth.  Though it has the freedom of placement, a host
system has to manage the placement, routing, replacement, and
defragmentation."

This comparator exposes the quantities that discussion turns on: hop
latency, diameter, bisection width, and the *host-managed placement*
cost, so the topology-baseline ablation bench can put numbers next to
the qualitative claims.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import TopologyError
from repro.topology.metrics import bisection_width, manhattan

__all__ = ["MeshTopology"]

Coord = Tuple[int, int]


class MeshTopology:
    """An ``rows × cols`` mesh of tiles with XY (dimension-ordered) routing."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise TopologyError("mesh needs positive dimensions")
        self.rows = rows
        self.cols = cols

    def hops(self, src: Coord, dst: Coord) -> int:
        """XY-routing hop count — equals the Manhattan distance."""
        self._check(src)
        self._check(dst)
        return manhattan(src, dst)

    def xy_route(self, src: Coord, dst: Coord) -> List[Coord]:
        """The dimension-ordered route: correct the column first, then the row."""
        self._check(src)
        self._check(dst)
        path = [src]
        r, c = src
        step = 1 if dst[1] > c else -1
        while c != dst[1]:
            c += step
            path.append((r, c))
        step = 1 if dst[0] > r else -1
        while r != dst[0]:
            r += step
            path.append((r, c))
        return path

    def diameter(self) -> int:
        """Corner-to-corner hop count."""
        return (self.rows - 1) + (self.cols - 1)

    def bisection_width(self) -> int:
        return bisection_width(self.rows, self.cols)

    def host_placement_cost(self, n_tasks: int) -> int:
        """A proxy for the host-side management burden section 5 points at:
        placing ``n_tasks`` tasks needs at least one host decision per task
        (placement) plus one per occupied tile on replacement — O(n) work
        *off-fabric*, whereas the S-topology's stack placement is free
        ("the placement is always on the top of the stack").
        """
        if n_tasks < 0:
            raise ValueError("task count cannot be negative")
        return 2 * n_tasks

    def _check(self, coord: Coord) -> None:
        r, c = coord
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise TopologyError(f"{coord} outside {self.rows}x{self.cols} mesh")
