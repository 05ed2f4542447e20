"""Cluster allocation: finding a free region of the requested scale.

"To configure an AP with the necessary scale, we should first configure
the processor at an executable scale (a minimum requirement for an
application task) by gathering the clusters (resources)" (section 3.3).

Two strategies are provided:

* **serpentine** — a contiguous run of free clusters along the fabric's
  global fold order.  This is the paper's natural placement: the linear
  array simply continues along the S, and an in-order configuration
  "performs a spatially local placement" (Figure 7(b)).
* **rectangle** — the smallest free rectangle holding the requested
  cluster count, threaded serpentine internally.  Compact shapes keep
  the region's Manhattan diameter (and hence chaining delay) low.

The fold-order queries (:meth:`~ClusterAllocator.free_count`,
:meth:`~ClusterAllocator.largest_free_run`,
:meth:`~ClusterAllocator.find_serpentine`) read the fabric's free mask
(:meth:`STopology.free_mask`) with the run search of
:mod:`repro.topology.folding` — the same search the compaction schedule
and the planners use.

Every query takes an optional ``within`` — a set of coordinates the
search is confined to.  A resident fabric (:mod:`repro.service`) shards
the die into per-tenant slices and passes each tenant's shard here, so
one tenant's placement can never depend on (or collide with) another
tenant's occupancy.
"""

from __future__ import annotations

from typing import Collection, List, Optional, Set, Tuple

from repro.errors import RegionError
from repro.topology.folding import first_run, longest_run
from repro.topology.regions import Region, path_region, rectangle_region
from repro.topology.s_topology import STopology

__all__ = ["ClusterAllocator"]

Coord = Tuple[int, int]


class ClusterAllocator:
    """Finds free regions on an :class:`STopology`."""

    def __init__(self, fabric: STopology) -> None:
        self.fabric = fabric

    # -- queries -----------------------------------------------------------

    def free_count(self, within: Optional[Collection[Coord]] = None) -> int:
        return bin(self.fabric.free_mask(within)).count("1")

    def largest_free_run(
        self, within: Optional[Collection[Coord]] = None
    ) -> int:
        """Longest contiguous run of free clusters in fold order."""
        return longest_run(self.fabric.free_mask(within))

    # -- strategies -------------------------------------------------------

    def find_serpentine(
        self, n_clusters: int, within: Optional[Collection[Coord]] = None
    ) -> Optional[Region]:
        """First contiguous free run of ``n_clusters`` along the fold."""
        if n_clusters < 1:
            raise RegionError("need at least one cluster")
        at = first_run(self.fabric.free_mask(within), n_clusters)
        if at is None:
            return None
        return path_region(self.fabric.order[at:at + n_clusters])

    def find_rectangle(
        self, n_clusters: int, within: Optional[Collection[Coord]] = None
    ) -> Optional[Region]:
        """Smallest-area free rectangle holding ``n_clusters``.

        Scans candidate shapes in increasing area, then increasing
        aspect-ratio skew, and positions top-left first.
        """
        if n_clusters < 1:
            raise RegionError("need at least one cluster")
        scope = None if within is None else set(within)
        shapes = self._candidate_shapes(n_clusters)
        for h, w in shapes:
            for r0 in range(self.fabric.rows - h + 1):
                for c0 in range(self.fabric.cols - w + 1):
                    if self._rect_free(r0, c0, h, w, scope):
                        return rectangle_region((r0, c0), h, w)
        return None

    def allocate(
        self,
        n_clusters: int,
        strategy: str = "serpentine",
        within: Optional[Collection[Coord]] = None,
    ) -> Region:
        """Find a region or raise.

        Raises
        ------
        RegionError
            If no free region of the requested scale exists (callers can
            retry after releasing processors, or report back pressure).
        """
        if strategy == "serpentine":
            region = self.find_serpentine(n_clusters, within=within)
        elif strategy == "rectangle":
            region = self.find_rectangle(n_clusters, within=within)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        if region is None:
            raise RegionError(
                f"no free {strategy} region of {n_clusters} clusters "
                f"({self.free_count(within)} free in "
                + ("the scope" if within is not None else "total")
                + ")"
            )
        return region

    # -- internals ---------------------------------------------------------

    def _eligible(self, coord: Coord, scope: Optional[Set[Coord]]) -> bool:
        if scope is not None and coord not in scope:
            return False
        return self.fabric.cluster(coord).is_free

    def _candidate_shapes(self, n: int) -> List[Tuple[int, int]]:
        """(h, w) shapes with h*w >= n, sorted by area then skew."""
        shapes = []
        for h in range(1, self.fabric.rows + 1):
            w = -(-n // h)  # ceil
            if w <= self.fabric.cols:
                shapes.append((h, w))
        shapes.sort(key=lambda s: (s[0] * s[1], abs(s[0] - s[1])))
        return shapes

    def _rect_free(
        self, r0: int, c0: int, h: int, w: int, scope: Optional[Set[Coord]]
    ) -> bool:
        return all(
            self._eligible((r, c), scope)
            for r in range(r0, r0 + h)
            for c in range(c0, c0 + w)
        )
