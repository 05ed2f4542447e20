"""The live fault injector: plan + trigger state + telemetry.

A :class:`FaultInjector` answers the hooks' one question — *is this
resource misbehaving right now?* — by consulting its
:class:`~repro.faults.model.FaultPlan` (pure, order-independent) and its
own trigger ledger (transient faults heal after their drawn duration of
triggers).  Every trigger is counted into :mod:`repro.telemetry` and, in
scope of an open span, recorded as a span event, so fault activity shows
up in ``--stats`` and ``--trace`` output next to the protocol steps it
corrupted.

One injector is wired into every hook of one simulated chip (the CSD
networks, the router network, the wormhole configurator), so a single
fault ledger spans all layers — exactly how one physical defect would.

The CSD channel filter, the campaign's hottest hook, reads bitmasks:
the segment is the fault unit (section 2.6.2's completely segmented
channels), so each channel of a CSD domain keeps one mask of the
segments that can still fault — the plan's drawn faults, from
:meth:`~repro.faults.model.FaultPlan.csd_fault_masks`, OR the
domain's quarantined segments, with a bit cleared once its transient
fault heals.  The first filter on a domain derives its masks, and
those of every domain registered in one group with it
(:meth:`FaultInjector.register_csd_group`), in one batch.  A candidate
channel whose mask misses the span survives with no ledger work; only
the set bits run the per-site trigger logic, in ascending segment
order, so counters, the ledger and the trace instants come out as a
per-site walk of every segment would give them.  A trigger increments
counters the injector looked up once per kind and transient bit, and
builds its trace instant only while the tracer is on; so does a heal.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.telemetry.metrics import Counter
from repro.faults.model import (
    Fault,
    FaultKind,
    FaultPlan,
    chain_switch_site,
    csd_segment_site,
    junction_site,
    noc_link_site,
    parse_csd_segment_site,
    worm_flit_site,
)

__all__ = ["FaultInjector"]

Coord = Tuple[int, int]
#: A CSD fault domain and its channel-pool geometry.
Grid = Tuple[str, int, int]


class FaultInjector:
    """Evaluates fault-site queries against a plan, with healing.

    The injector is deliberately cheap when fault-free: every query
    starts with one ``fault_free`` check and returns immediately, so a
    rate-0 plan (or simply not attaching an injector) leaves the
    simulators byte-identical to an uninstrumented run.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # read once: nothing changes a plan after its injector is built
        self._fault_free = plan.fault_free
        #: (kind, transient) -> the three counters a trigger of such a
        #: fault increments, looked up once (Registry.reset keeps its
        #: Counter objects, so the cached ones stay the registry's)
        self._ledger: Dict[Tuple[FaultKind, bool], Tuple[Counter, ...]] = {}
        #: the faults.healed counter, looked up on the first heal
        self._healed_counter: Optional[Counter] = None
        self._tracer = telemetry.tracer()
        #: site -> triggers so far (only sites that drew a fault appear)
        self._triggers: Dict[str, int] = {}
        #: sites whose transient fault already healed
        self._healed: set = set()
        #: sites quarantined by the degradation layer (always faulty)
        self._quarantined: set = set()
        #: (domain, n_channels, n_segments) -> per-channel masks of the
        #: segments that can fault; see filter_csd_channels
        self._csd_masks: Dict[Grid, List[int]] = {}
        #: CSD grid -> the registered group it is derived with
        self._csd_groups: Dict[Grid, Tuple[Grid, ...]] = {}

    # -- core trigger logic ------------------------------------------------

    def _active(self, kind: FaultKind, site: str) -> bool:
        """Whether ``site`` misbehaves on *this* exercise (and count it)."""
        if site in self._quarantined:
            return True
        if self._fault_free:
            return False
        if site in self._healed:
            return False
        fault = self.plan.draw(kind, site)
        if fault is None:
            return False
        count = self._triggers.get(site, 0) + 1
        self._triggers[site] = count
        if fault.transient and count > fault.duration:
            self._healed.add(site)
            if self._healed_counter is None:
                self._healed_counter = telemetry.counter("faults.healed")
            self._healed_counter.inc()
            if self._tracer.enabled:
                self._tracer.instant(
                    "fault.healed", kind=kind.value, site=site
                )
            return False
        self._record(fault)
        return True

    def _record(self, fault: Fault) -> None:
        counters = self._ledger.get((fault.kind, fault.transient))
        if counters is None:
            counters = self._ledger[fault.kind, fault.transient] = (
                telemetry.counter("faults.triggered"),
                telemetry.counter(f"faults.{fault.kind.value}.triggered"),
                telemetry.counter(
                    "faults.transient.triggered"
                    if fault.transient
                    else "faults.permanent.triggered"
                ),
            )
        for counter in counters:
            counter.inc()
        if self._tracer.enabled:
            self._tracer.instant(
                "fault.triggered",
                kind=fault.kind.value,
                site=fault.site,
                transient=fault.transient,
            )

    def peek(self, kind: FaultKind, site: str) -> bool:
        """Like the trigger queries but without consuming a transient
        hit — for assertions and degradation decisions."""
        if site in self._quarantined:
            return True
        if self._fault_free or site in self._healed:
            return False
        fault = self.plan.draw(kind, site)
        if fault is None:
            return False
        if fault.transient and self._triggers.get(site, 0) >= fault.duration:
            return False
        return True

    def is_permanent(self, kind: FaultKind, site: str) -> bool:
        """Whether ``site`` carries a permanent fault (never heals)."""
        if site in self._quarantined:
            return True
        if self._fault_free:
            return False
        fault = self.plan.draw(kind, site)
        return fault is not None and fault.permanent

    def quarantine(self, site: str) -> None:
        """Degradation hook: force ``site`` faulty from now on (the
        extended defect injector routes around it)."""
        self._quarantined.add(site)
        telemetry.counter("faults.quarantined").inc()
        parts = parse_csd_segment_site(site)
        if parts is not None:
            for grid, masks in self._csd_masks.items():
                _mark(masks, grid, parts)

    # -- per-layer queries (the hook API) ----------------------------------

    def filter_csd_channels(
        self,
        channels: Iterable[int],
        lo: int,
        hi: int,
        domain: str = "csd",
        *,
        n_channels: int,
        n_segments: int,
    ) -> List[int]:
        """The surviving-channel filter for the Figure 2 broadcast: drop
        every candidate channel with an active segment fault on the span
        ``[lo, hi)``.  Every faulty segment in the span is triggered (the
        request exercised them all), channel by channel in the given
        order and segment by segment upwards.  ``n_channels`` and
        ``n_segments`` are the geometry of the domain's channel pool;
        every candidate is one of its channels."""
        masks = self._live_csd_masks(domain, n_channels, n_segments)
        span = ((1 << (hi - lo)) - 1) << lo
        surviving = []
        for channel in channels:
            hits = masks[channel] & span
            blocked = False
            while hits:
                bit = hits & -hits
                hits ^= bit
                site = csd_segment_site(domain, channel, bit.bit_length() - 1)
                if self._active(FaultKind.CSD_SEGMENT, site):
                    blocked = True
                else:  # healed: it never faults again unless quarantined
                    masks[channel] &= ~bit
            if not blocked:
                surviving.append(channel)
        return surviving

    def register_csd_group(self, grids: Sequence[Grid]) -> None:
        """Derive these ``(domain, n_channels, n_segments)`` CSD grids
        together: the first filter on any of them derives every one not
        yet derived, in one batch.  A
        :class:`~repro.csd.chained.ChainedCSD` registers its member
        segments."""
        group = tuple(grids)
        for grid in group:
            self._csd_groups[grid] = group

    def _live_csd_masks(
        self, domain: str, n_channels: int, n_segments: int
    ) -> List[int]:
        grid = (domain, n_channels, n_segments)
        masks = self._csd_masks.get(grid)
        if masks is None:
            todo = [
                member for member in self._csd_groups.get(grid, (grid,))
                if member not in self._csd_masks
            ]
            for member, member_masks in zip(
                todo, self.plan.csd_fault_masks(todo)
            ):
                for site in self._quarantined:
                    parts = parse_csd_segment_site(site)
                    if parts is not None:
                        _mark(member_masks, member, parts)
                self._csd_masks[member] = member_masks
            masks = self._csd_masks[grid]
        return masks

    def junction_fault(self, index: int) -> bool:
        """Whether ChainedCSD junction ``index`` misbehaves on crossing."""
        return self._active(FaultKind.SWITCH, junction_site(index))

    def chain_switch_fault(self, a: Coord, b: Coord) -> bool:
        """Whether programming the S-topology chain switch ``a``–``b``
        fails (the worm's instruction is ignored)."""
        return self._active(FaultKind.SWITCH, chain_switch_site(a, b))

    def link_fault(self, src: Coord, dst: Coord) -> bool:
        """Whether the router link ``src``→``dst`` drops this cycle's
        flit (the flit stalls and retries next cycle)."""
        return self._active(FaultKind.NOC_LINK, noc_link_site(src, dst))

    def flit_fault(self, payload: object) -> bool:
        """Whether this payload flit is corrupted on ejection (its
        programming instruction is lost)."""
        if payload is None:
            return False
        return self._active(FaultKind.WORM_FLIT, worm_flit_site(payload))

    def pristine(self) -> bool:
        """Whether this injector can never fire: a fault-free plan and no
        quarantined sites.  (Quarantine overrides the plan — ``_active``
        consults it first — so ``plan.fault_free`` alone is not enough.)
        Fast paths that skip fault hooks entirely must gate on this."""
        return self._fault_free and not self._quarantined

    def quarantined_sites(self) -> Tuple[str, ...]:
        """Sites forced faulty by the degradation layer, sorted."""
        return tuple(sorted(self._quarantined))

    # -- statistics --------------------------------------------------------

    @property
    def healed_sites(self) -> Tuple[str, ...]:
        return tuple(sorted(self._healed))

    def total_triggers(self) -> int:
        return sum(self._triggers.values())


def _mark(masks: List[int], grid: Grid, parts: Tuple[str, int, int]) -> None:
    """Set the bit of the CSD segment ``parts`` in the masks of
    ``grid``, if it lies there."""
    domain, n_channels, n_segments = grid
    site_domain, channel, segment = parts
    if site_domain == domain and channel < n_channels and segment < n_segments:
        masks[channel] |= 1 << segment
