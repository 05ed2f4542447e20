"""Graceful degradation: re-route or re-map around what will not heal.

This is the paper's section-1 story made operational:

    "Through the VLSI processor architecture, the failing AP can be
    removed from the system. ... When a second AP fail[s], the first
    processor can become a small-scale processor, the third and fourth
    processors can be fused into the a medium-scale processor or split
    into two small-scale processors."

:class:`FaultAwareDefectInjector` extends the cluster-level
:class:`~repro.core.defects.DefectInjector` down to the resources the
fault campaign actually breaks, subsuming it for segment- and
switch-level defects:

* a **permanent CSD segment fault** needs no structural response — the
  channel filter keeps excluding the broken channel on that span and the
  priority encoder re-routes onto the survivors (recorded for the books);
* a **permanent junction-switch fault** splits the fused processor at
  the sticking junction (``unchain_junction``), exactly the paper's
  re-split response — both halves keep chaining internally;
* a **permanent cluster/transport fault** quarantines the cluster
  (marks it defective *and* poisons its fault sites) and re-maps the
  owning processor elsewhere via the inherited ``inject_at`` machinery.

Every action is recorded as a :class:`DegradationReport` so campaign
survival curves can separate "recovered by retry", "degraded but
alive", and "lost".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import telemetry
from repro.core.defects import DefectInjector, DefectReport
from repro.core.vlsi_processor import VLSIProcessor
from repro.faults.injector import FaultInjector
from repro.faults.model import chain_switch_site, junction_site

__all__ = ["DegradationReport", "FaultAwareDefectInjector"]

Coord = Tuple[int, int]


@dataclass(frozen=True)
class DegradationReport:
    """Outcome of one degradation action below the cluster level."""

    #: ``"segment"`` | ``"junction"`` | ``"cluster"``
    level: str
    #: Site or coordinate that triggered the action.
    target: str
    #: ``"reroute"`` | ``"split"`` | ``"remap"``
    action: str
    #: Whether the system still serves the affected workload afterwards.
    survived: bool


class FaultAwareDefectInjector(DefectInjector):
    """A :class:`DefectInjector` that also understands fault sites.

    Parameters
    ----------
    vlsi:
        The chip whose fabric takes the defects.
    faults:
        The live fault injector of the same simulated chip; quarantined
        sites stay faulty forever, which is how a degradation decision
        propagates back into the fault hooks.
    """

    def __init__(
        self,
        vlsi: VLSIProcessor,
        faults: Optional[FaultInjector] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(vlsi, seed=seed)
        self.faults = faults
        self.degradations: List[DegradationReport] = []

    # -- segment level ------------------------------------------------------

    def record_segment_reroute(self, site: str) -> DegradationReport:
        """Book a permanent CSD segment fault as re-routed: the broken
        channel stays excluded on that span and traffic takes another
        channel — no structural change needed (section 2.6.2's whole
        point: channels are interchangeable on a span)."""
        if self.faults is not None:
            self.faults.quarantine(site)
        report = DegradationReport("segment", site, "reroute", True)
        self._book(report)
        return report

    # -- switch level -------------------------------------------------------

    def split_at_junction(self, chained, junction: int) -> DegradationReport:
        """Respond to a permanently sticking junction switch by
        splitting the fused processor there (the paper's "split into two
        small-scale processors").  Both halves keep working internally."""
        chained.unchain_junction(junction)
        if self.faults is not None:
            self.faults.quarantine(junction_site(junction))
        report = DegradationReport(
            "junction", junction_site(junction), "split", True
        )
        self._book(report)
        return report

    # -- cluster level ------------------------------------------------------

    def quarantine_cluster(
        self, coord: Coord, remap: bool = True
    ) -> Tuple[DegradationReport, DefectReport]:
        """Remove a cluster the transport can no longer reliably reach
        or program: mark it defective, poison its switch sites, and
        re-map the owning processor elsewhere (inherited machinery)."""
        defect = self.inject_at(coord, remap=remap)
        if self.faults is not None:
            for nbr in self.vlsi.fabric.neighbors(coord):
                self.faults.quarantine(chain_switch_site(coord, nbr))
        survived = defect.affected_processor is None or defect.remapped
        report = DegradationReport(
            "cluster", f"cluster/{coord[0]},{coord[1]}", "remap", survived
        )
        self._book(report)
        return report, defect

    # -- bookkeeping --------------------------------------------------------

    def _book(self, report: DegradationReport) -> None:
        self.degradations.append(report)
        telemetry.counter("faults.degradations").inc()
        telemetry.counter(f"faults.degradations.{report.action}").inc()
        telemetry.instant(
            "fault.degradation",
            level=report.level,
            action=report.action,
            target=report.target,
        )

    def survival_summary(self) -> Tuple[int, int]:
        """``(survived, total)`` across every degradation taken."""
        total = len(self.degradations)
        survived = sum(1 for d in self.degradations if d.survived)
        return survived, total
