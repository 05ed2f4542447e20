"""The VLSI processor façade (paper sections 1 and 3).

A :class:`VLSIProcessor` owns one S-topology fabric, its wormhole
configuration machinery, and the set of live processor instances — each
an adaptive processor fused out of clusters, with its Figure 6(e) state
machine and externally-writable mailbox.

The up/down-scaling operations live in
:class:`repro.core.scaling.ScalingController`; program execution across
processors in :class:`repro.core.partition.ProgramExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.core.allocation import ClusterAllocator
from repro.core.ipc import Mailbox
from repro.core.states import (
    ProcessorState,
    ProcessorStateMachine,
    lifecycle_census,
)
from repro.noc.network import RouterNetwork
from repro.noc.wormhole import WormholeConfigurator
from repro.topology.cluster import ClusterResources
from repro.topology.metrics import diameter
from repro.topology.regions import Region
from repro.topology.s_topology import STopology

__all__ = ["ProcessorInstance", "VLSIProcessor"]


@dataclass
class ProcessorInstance:
    """One live (configured) adaptive processor on the fabric."""

    name: str
    region: Region
    state: ProcessorStateMachine = field(default_factory=ProcessorStateMachine)
    mailbox: Mailbox = field(init=False)
    #: Lifetime router cycles spent on this processor's configuration
    #: worms — accumulated across create/scale/relocate operations
    #: (0 without a network).
    config_cycles: int = 0
    #: Router cycles of the most recent configuration worm alone (what
    #: one operation cost, as opposed to the lifetime total above).
    last_config_cycles: int = 0

    def __post_init__(self) -> None:
        self.mailbox = Mailbox(self.state)

    @property
    def n_clusters(self) -> int:
        return len(self.region)

    def capacity(self, resources: ClusterResources) -> int:
        """Stack capacity C of this processor (compute objects)."""
        return self.region.capacity(resources.compute_objects)

    def span(self) -> int:
        """Manhattan diameter of the region — the worst-case chaining
        distance inside this processor."""
        return diameter(self.region.path)


class VLSIProcessor:
    """A whole chip: fabric + routers + live processors.

    Parameters
    ----------
    rows, cols:
        Cluster grid dimensions.
    resources:
        Per-cluster object mix (Table 4 default: 16 compute + 16 memory).
    with_network:
        Attach a cycle-level router network so configuration worms are
        actually delivered and timed.
    """

    def __init__(
        self,
        rows: int = 8,
        cols: int = 8,
        resources: Optional[ClusterResources] = None,
        with_network: bool = True,
    ) -> None:
        self.fabric = STopology(rows, cols, resources)
        self.network: Optional[RouterNetwork] = (
            RouterNetwork(rows, cols) if with_network else None
        )
        self.configurator = WormholeConfigurator(self.fabric, network=self.network)
        self.allocator = ClusterAllocator(self.fabric)
        self.processors: Dict[str, ProcessorInstance] = {}

    # -- lifecycle ---------------------------------------------------------

    def create_processor(
        self,
        name: str,
        n_clusters: int = 1,
        strategy: str = "serpentine",
        region: Optional[Region] = None,
        within: Optional[Any] = None,
    ) -> ProcessorInstance:
        """Gather clusters, wormhole-configure them, enter INACTIVE.

        ``within`` confines the allocator's search to a coordinate set
        (a resident fabric passes the owning tenant's shard).

        Raises
        ------
        ConfigurationError
            On a duplicate name.
        RegionError
            When no free region of the requested scale exists.
        """
        if name in self.processors:
            raise ConfigurationError(f"processor {name!r} already exists")
        if region is None:
            region = self.allocator.allocate(
                n_clusters, strategy=strategy, within=within
            )
        op = self.configurator.configure(region, owner=name)
        instance = ProcessorInstance(name=name, region=region)
        instance.config_cycles = op.config_cycles
        instance.last_config_cycles = op.config_cycles
        instance.state.configure()  # release -> inactive
        self.processors[name] = instance
        return instance

    def destroy_processor(self, name: str) -> None:
        """Down-scale to nothing: release clusters and forget the name."""
        instance = self.processor(name)
        if instance.state.state is ProcessorState.SLEEP:
            instance.state.wake()
        instance.state.release()
        self.configurator.release(instance.region, owner=name)
        del self.processors[name]

    def processor(self, name: str) -> ProcessorInstance:
        try:
            return self.processors[name]
        except KeyError:
            raise ConfigurationError(f"no processor {name!r}") from None

    # -- state control ----------------------------------------------------

    def activate(self, name: str) -> None:
        self.processor(name).state.activate()

    def deactivate(self, name: str) -> None:
        self.processor(name).state.deactivate()

    def sleep(self, name: str) -> None:
        self.processor(name).state.sleep()

    def wake(self, name: str) -> None:
        self.processor(name).state.wake()

    # -- inter-processor communication -------------------------------------

    def send(self, sender: str, target: str, key: Any, value: Any) -> None:
        """The §3.4 delivery: ``sender`` stores into ``target``'s memory
        blocks (target must be INACTIVE)."""
        self.processor(sender)  # must exist
        self.processor(target).mailbox.deliver(sender, key, value)

    # -- fabric-level queries ------------------------------------------------

    def free_clusters(self) -> int:
        return self.allocator.free_count()

    def utilization(self) -> float:
        """Fraction of clusters owned by live processors."""
        owned = sum(p.n_clusters for p in self.processors.values())
        return owned / len(self.fabric)

    def lifecycle_census(self) -> Dict[str, int]:
        """Figure 6(e) state census across the whole chip.

        Live processors report their machine's state; the ``release``
        row counts the fabric's free clusters (a destroyed processor
        leaves no machine behind, but its clusters return to the release
        pool — §3.3 "starts from and ends with the release state")."""
        census = lifecycle_census(p.state for p in self.processors.values())
        census[ProcessorState.RELEASE.value] = self.allocator.free_count()
        return census

    def render(self) -> str:
        """ASCII view of the fabric with processor ownership."""
        return self.fabric.render()
