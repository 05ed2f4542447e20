"""The resident fabric: one live die shared by many tenants.

Before this module every workload constructed a fresh
:class:`~repro.core.vlsi_processor.VLSIProcessor`, ran one trial, and
threw it away — "``run_trial`` owns the world".  A :class:`ResidentFabric`
inverts that: the processor, its S-topology, and its wormhole
configurator live for the whole service lifetime, and *tenants* come
and go around them.

Multi-tenancy rests on three mechanisms:

* **Shards** — admission carves the die's serpentine fold into disjoint
  per-tenant slices.  Every allocation and every up-scale a tenant
  requests is confined to its shard (the ``within=`` scope added to
  :class:`~repro.core.allocation.ClusterAllocator` and
  :class:`~repro.core.scaling.ScalingController`), so no tenant's
  placement can observe — or collide with — another tenant's occupancy.
* **Quotas** — per-tenant caps on clusters, live processors, and
  mailbox slots.  Exceeding one raises :class:`~repro.errors.QuotaError`
  before any fabric state is touched.
* **Reservation flags** — every mutating scale-up runs the §3.3
  reserve→commit worm through the shared
  :class:`~repro.noc.wormhole.WormholeConfigurator`; a failed worm
  (fault, conflict, disconnect-triggered abort) rolls its flags back,
  so the fabric never carries a partial configuration between requests.

Every operation returns ``(result, cost_cycles)``; the cost is a
deterministic function of the operation and the tenant's own shard
state — the foundation of the service's byte-identical latency reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    QuotaError,
    ServiceError,
)
from repro.core.scaling import ScalingController
from repro.core.vlsi_processor import ProcessorInstance, VLSIProcessor
from repro.topology.folding import first_run, fold_mask
from repro.topology.metrics import manhattan

__all__ = ["TenantQuota", "Tenant", "ResidentFabric"]

Coord = Tuple[int, int]


@dataclass(frozen=True)
class TenantQuota:
    """Admission-time resource caps for one tenant."""

    #: Shard size: the tenant may never own more clusters than this.
    clusters: int
    #: Maximum simultaneously-live processors.
    processors: int = 8
    #: Mailbox capacity (distinct occupied slots) per processor.
    mailbox_slots: int = 64

    def __post_init__(self) -> None:
        if self.clusters < 1:
            raise ValueError("quota needs at least one cluster")
        if self.processors < 1:
            raise ValueError("quota needs at least one processor")
        if self.mailbox_slots < 1:
            raise ValueError("quota needs at least one mailbox slot")


@dataclass
class Tenant:
    """One admitted tenant's shard, quota, and virtual clock."""

    name: str
    shard: Tuple[Coord, ...]
    quota: TenantQuota
    #: Simulated cycle at which the tenant's last operation completed.
    clock: int = 0
    #: Integration mark for :attr:`cluster_cycles` (last accounted cycle).
    mark: int = 0
    #: ∫ owned-clusters d(cycle) — the tenant's share of fabric occupancy.
    cluster_cycles: int = 0
    requests: int = 0
    rejections: int = 0
    _shard_set: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._shard_set = frozenset(self.shard)

    @property
    def shard_set(self) -> frozenset:
        return self._shard_set


class ResidentFabric:
    """A long-lived :class:`VLSIProcessor` multiplexed across tenants.

    Parameters
    ----------
    rows, cols:
        Die dimensions.
    max_tenants:
        Admission cap; ``None`` means "as many as the die can shard".
    with_network:
        Attach the cycle-level router network so configuration worms
        are actually delivered and timed (their measured delivery
        latency feeds the service's cost model).
    """

    def __init__(
        self,
        rows: int = 8,
        cols: int = 8,
        max_tenants: Optional[int] = None,
        with_network: bool = True,
    ) -> None:
        self.vlsi = VLSIProcessor(rows, cols, with_network=with_network)
        self.scaler = ScalingController(self.vlsi)
        self.max_tenants = max_tenants
        self.tenants: Dict[str, Tenant] = {}
        self._shard_owner: Dict[Coord, str] = {}
        #: Tenants admitted over the fabric's lifetime (monotonic).
        self.admitted_total = 0

    # -- admission control -------------------------------------------------

    def admit(
        self,
        name: str,
        clusters: int,
        processors: int = 8,
        mailbox_slots: int = 64,
        slot: Optional[int] = None,
    ) -> Tuple[Tenant, int]:
        """Admit a tenant, carving its shard out of the fold.

        ``slot`` pins the shard to fold positions ``slot`` to
        ``slot + clusters - 1`` — a placement hint clients use for
        cross-run determinism (the load generator always passes one).
        Without it the first free run of un-sharded clusters along the
        fold is taken (:func:`~repro.topology.folding.first_run` on the
        un-sharded mask), which depends on who is currently resident.

        Returns ``(tenant, cost_cycles)``.

        Raises
        ------
        AdmissionError
            Duplicate tenant, tenant cap reached, a quota field below 1,
            shard slot out of bounds or overlapping a resident tenant,
            or no free run of the requested scale.
        """
        if name in self.tenants:
            raise AdmissionError(f"tenant {name!r} already admitted")
        if self.max_tenants is not None and len(self.tenants) >= self.max_tenants:
            raise AdmissionError(
                f"tenant cap reached ({self.max_tenants} resident)"
            )
        try:
            quota = TenantQuota(clusters, processors, mailbox_slots)
        except ValueError as exc:
            raise AdmissionError(str(exc)) from None
        fabric = self.vlsi.fabric
        n = len(fabric.order)
        if slot is None:
            sharded = fold_mask(fabric.fold, self._shard_owner)
            slot = first_run(~sharded & ((1 << n) - 1), clusters)
            if slot is None:
                raise AdmissionError(
                    f"no free {clusters}-cluster shard on the fold "
                    f"({n - len(self._shard_owner)} un-sharded)"
                )
        elif slot < 0 or slot + clusters > n:
            raise AdmissionError(
                f"shard slot {slot}+{clusters} outside the "
                f"{n}-cluster fold"
            )
        shard = fabric.order[slot : slot + clusters]
        taken = [c for c in shard if c in self._shard_owner]
        if taken:
            raise AdmissionError(
                f"shard slot {slot}+{clusters} overlaps tenant "
                f"{self._shard_owner[taken[0]]!r} at {taken[0]}"
            )
        tenant = Tenant(name=name, shard=shard, quota=quota)
        self.tenants[name] = tenant
        for coord in shard:
            self._shard_owner[coord] = name
        self.admitted_total += 1
        telemetry.counter("service.admissions").inc()
        # shard scan + switch-flag initialisation: one cycle per cluster
        return tenant, 1 + clusters

    def evict(self, name: str) -> Tuple[Dict[str, Any], int]:
        """Remove a tenant: destroy its processors, free its shard.

        Used both by a graceful ``bye`` and by the server's disconnect
        cleanup.  Returns ``(summary, cost_cycles)``.
        """
        tenant = self._tenant(name)
        released = 0
        for proc in sorted(self._tenant_processors(name)):
            released += len(self.vlsi.processor(proc).region)
            self.vlsi.destroy_processor(proc)
        for coord in tenant.shard:
            del self._shard_owner[coord]
        del self.tenants[name]
        telemetry.counter("service.evictions").inc()
        summary = {
            "released_clusters": released,
            "cluster_cycles": tenant.cluster_cycles,
            "requests": tenant.requests,
            "rejections": tenant.rejections,
        }
        return summary, 1 + released

    # -- tenant operations -------------------------------------------------

    def create(
        self, name: str, proc: str, clusters: int
    ) -> Tuple[Dict[str, Any], int]:
        """Create a processor of ``clusters`` clusters inside the shard."""
        tenant = self._tenant(name)
        if clusters < 1:
            raise ServiceError("need at least one cluster")
        self._check_cluster_quota(tenant, clusters)
        if len(self._tenant_processors(name)) >= tenant.quota.processors:
            raise QuotaError(
                f"tenant {name!r} at its processor quota "
                f"({tenant.quota.processors})"
            )
        qualified = self._qualify(name, proc)
        instance = self.vlsi.create_processor(
            qualified, clusters, within=tenant.shard_set
        )
        instance.mailbox.capacity = tenant.quota.mailbox_slots
        cost = 1 + instance.config_cycles + len(instance.region)
        return {
            "processor": proc,
            "clusters": len(instance.region),
            "head": list(instance.region.path[0]),
            "config_cycles": instance.config_cycles,
        }, cost

    def scale_up(
        self, name: str, proc: str, extra: int
    ) -> Tuple[Dict[str, Any], int]:
        """Chain ``extra`` free shard clusters onto the processor's tail.

        The extension runs the full §3.3 reserve→commit worm; a failed
        worm rolls back its reservation flags and leaves the processor
        at its previous scale.
        """
        tenant = self._tenant(name)
        if extra < 1:
            raise ServiceError("need at least one extra cluster")
        self._check_cluster_quota(tenant, extra)
        qualified = self._qualify(name, proc)
        instance = self.scaler.up_scale(
            qualified, extra, within=tenant.shard_set
        )
        # per-operation worm latency, not the lifetime total the
        # instance now accumulates — keeps the cost model (and the
        # byte-identical latency reports) exactly as before
        cost = 1 + instance.last_config_cycles + extra
        return {
            "processor": proc,
            "clusters": len(instance.region),
            "config_cycles": instance.last_config_cycles,
        }, cost

    def scale_down(
        self, name: str, proc: str, drop: int
    ) -> Tuple[Dict[str, Any], int]:
        """Unchain ``drop`` clusters from the processor's tail."""
        self._tenant(name)
        if drop < 1:
            raise ServiceError("need at least one cluster to drop")
        qualified = self._qualify(name, proc)
        instance = self.scaler.down_scale(qualified, drop)
        # "clearing active state": two switch writes per dropped junction
        return {
            "processor": proc,
            "clusters": len(instance.region),
        }, 1 + 2 * drop

    def destroy(self, name: str, proc: str) -> Tuple[Dict[str, Any], int]:
        """Down-scale a processor to nothing (back to the release pool)."""
        self._tenant(name)
        qualified = self._qualify(name, proc)
        released = len(self.vlsi.processor(qualified).region)
        self.vlsi.destroy_processor(qualified)
        return {"processor": proc, "released_clusters": released}, 1 + released

    def send(
        self, name: str, src: str, dst: str, key: str, value: Any
    ) -> Tuple[Dict[str, Any], int]:
        """§3.4 delivery between two of the tenant's processors."""
        self._tenant(name)
        src_q = self._qualify(name, src)
        dst_q = self._qualify(name, dst)
        src_head = self.vlsi.processor(src_q).region.path[0]
        dst_head = self.vlsi.processor(dst_q).region.path[0]
        self.vlsi.send(src_q, dst_q, key, value)
        # the store crosses the chain network head-to-head
        return {
            "src": src,
            "dst": dst,
            "key": key,
        }, 1 + manhattan(src_head, dst_head)

    def tenant_stats(self, name: str) -> Tuple[Dict[str, Any], int]:
        """The tenant's own occupancy — what the ``stats`` op returns.

        Deliberately scoped to the requesting tenant: a fabric-wide
        snapshot is a function of the live interleaving (who else is
        resident *right now*), which would leak scheduling into the
        completion records and break byte-identical reports, so the
        protocol offers no fabric-wide view.
        """
        tenant = self._tenant(name)
        return {
            "processors": len(self._tenant_processors(name)),
            "owned_clusters": self.owned_clusters(name),
            "shard_clusters": len(tenant.shard),
            "quota_clusters": tenant.quota.clusters,
        }, 1

    # -- queries -----------------------------------------------------------

    def owned_clusters(self, name: str) -> int:
        """Clusters currently owned by ``name``'s processors."""
        return sum(
            len(self.vlsi.processor(p).region)
            for p in self._tenant_processors(name)
        )

    def reserved_switch_count(self) -> int:
        """Reservation flags currently planted on the fabric — zero
        whenever no scaling worm is in flight (the rollback invariant
        the admission tests pin)."""
        return sum(
            1 for sw in self.vlsi.fabric.all_switches() if sw.is_reserved
        )

    def instance(self, name: str, proc: str) -> ProcessorInstance:
        return self.vlsi.processor(self._qualify(name, proc))

    # -- internals ---------------------------------------------------------

    def _tenant(self, name: str) -> Tenant:
        try:
            return self.tenants[name]
        except KeyError:
            raise ServiceError(f"tenant {name!r} not admitted") from None

    def _tenant_processors(self, name: str) -> List[str]:
        prefix = f"{name}/"
        return [p for p in self.vlsi.processors if p.startswith(prefix)]

    def _check_cluster_quota(self, tenant: Tenant, extra: int) -> None:
        owned = self.owned_clusters(tenant.name)
        if owned + extra > tenant.quota.clusters:
            raise QuotaError(
                f"tenant {tenant.name!r} owns {owned} clusters; {extra} more "
                f"would exceed its quota of {tenant.quota.clusters}"
            )

    @staticmethod
    def _qualify(name: str, proc: str) -> str:
        if not proc or "/" in proc:
            raise ConfigurationError(
                f"processor name {proc!r} must be non-empty and free of '/'"
            )
        return f"{name}/{proc}"
