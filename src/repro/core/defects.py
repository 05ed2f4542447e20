"""Defect injection and tolerance (paper section 1).

"Scaling to hundreds or thousands of processor elements and memory
blocks on chip will increase the number of defects.  Through the VLSI
processor architecture, the failing AP can be removed from the system.
For example, when four APs are used on chip ... When a second AP fail[s],
the first processor can become a small-scale processor, the third and
fourth processors can be fused into the a medium-scale processor or
split into two small-scale processors."

:class:`DefectInjector` marks clusters defective; when a live processor
is hit, the failing processor is removed and — when possible — re-created
at the same scale from the remaining healthy clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import DefectError, ReproError
from repro.core.vlsi_processor import VLSIProcessor

__all__ = ["DefectReport", "DefectInjector"]

Coord = Tuple[int, int]


@dataclass(frozen=True)
class DefectReport:
    """Outcome of one defect event."""

    coord: Coord
    affected_processor: Optional[str]
    remapped: bool
    #: The replacement's region path, when remapping succeeded.
    new_path: Optional[Tuple[Coord, ...]] = None


class DefectInjector:
    """Injects defects and drives the removal/remap response."""

    def __init__(self, vlsi: VLSIProcessor, seed: Optional[int] = None) -> None:
        self.vlsi = vlsi
        self._rng = np.random.default_rng(seed)
        self.reports: List[DefectReport] = []

    # -- injection --------------------------------------------------------

    def inject_at(self, coord: Coord, remap: bool = True) -> DefectReport:
        """Fail the cluster at ``coord`` and handle the consequences.

        An owned cluster takes its whole processor down (the paper
        removes the failing AP); with ``remap`` the processor is
        re-created at the same scale elsewhere if capacity allows.

        Raises
        ------
        DefectError
            When ``coord`` lies outside the fabric — a defect cannot be
            injected into hardware that does not exist.
        """
        if coord not in self.vlsi.fabric:
            raise DefectError(
                f"cannot inject a defect at {coord}: outside the "
                f"{self.vlsi.fabric.rows}x{self.vlsi.fabric.cols} fabric"
            )
        cluster = self.vlsi.fabric.cluster(coord)
        owner = cluster.owner
        affected = None
        remapped = False
        new_path = None
        if owner is not None:
            affected = str(owner)
            instance = self.vlsi.processor(affected)
            n_clusters = instance.n_clusters
            self.vlsi.destroy_processor(affected)
            cluster.mark_defective()
            if remap:
                try:
                    replacement = self.vlsi.create_processor(
                        affected, n_clusters=n_clusters
                    )
                    remapped = True
                    new_path = replacement.region.path
                except ReproError:
                    # remapping failed (no capacity, fabric too broken,
                    # worm could not deliver) — the defect still happened,
                    # so the report below is recorded regardless
                    remapped = False
        else:
            cluster.mark_defective()
        report = DefectReport(coord, affected, remapped, new_path)
        self.reports.append(report)
        return report

    def inject_random(self, n: int = 1, remap: bool = True) -> List[DefectReport]:
        """Fail ``n`` random non-defective clusters."""
        if n < 0:
            raise ValueError("defect count cannot be negative")
        out = []
        for _ in range(n):
            healthy = [
                cl.coord
                for cl in self.vlsi.fabric.clusters()
                if not cl.defective
            ]
            if not healthy:
                break
            coord = healthy[int(self._rng.integers(len(healthy)))]
            out.append(self.inject_at(coord, remap=remap))
        return out

    # -- queries -----------------------------------------------------------

    def defective_count(self) -> int:
        return sum(1 for cl in self.vlsi.fabric.clusters() if cl.defective)

    def surviving_capacity(self) -> int:
        """Healthy clusters (free or owned) still on the fabric."""
        return sum(1 for cl in self.vlsi.fabric.clusters() if not cl.defective)
