"""Up-/down-scaling, fusion and splitting of processors (section 3.3).

"Up- or down-scaling is simply to chain or unchain between the
segmented interconnection networks.  The scaling does not require a
dedicated instruction, and is to simply store the appropriate
configuration data to the appropriate programmable switch with a
wormhole reconfiguration."

All four operations work on INACTIVE processors (their memory is open
and nothing is executing) and preserve the linear-array invariant: a
processor's region is always one grid-adjacent path.  They refuse a ring
(Figure 5): each one rewires a chain end or a junction, which would
leave the ring's closing edge chained to a cluster it no longer joins.
"""

from __future__ import annotations

from typing import Collection, List, Optional, Set, Tuple

from repro import telemetry
from repro.errors import (
    ConfigurationError,
    RegionError,
    StateTransitionError,
)
from repro.core.states import ProcessorState
from repro.core.vlsi_processor import ProcessorInstance, VLSIProcessor
from repro.topology.regions import Region, path_region
from repro.topology.switches import SwitchState

__all__ = ["ScalingController"]

Coord = Tuple[int, int]


class ScalingController:
    """Performs scaling operations on a :class:`VLSIProcessor`.

    Parameters
    ----------
    vlsi:
        The chip being scaled.
    """

    def __init__(self, vlsi: VLSIProcessor) -> None:
        self.vlsi = vlsi

    # -- up-scaling ---------------------------------------------------------

    def up_scale(
        self,
        name: str,
        extra_clusters: int,
        within: Optional[Collection[Coord]] = None,
    ) -> ProcessorInstance:
        """Grow a processor by chaining free clusters onto its tail.

        The extension is found by walking free clusters adjacent to the
        current tail (depth-first, preferring the fabric's fold
        direction), then wormhole-configured and chained on.  When
        ``within`` is given, the extension may only use those
        coordinates (a resident fabric confines each tenant to its
        shard this way).  The configuration worm's delivery latency is
        recorded on ``instance.config_cycles``.

        Raises
        ------
        RegionError
            If no free adjacent extension of that size exists, or the
            processor is a ring.
        StateTransitionError
            If the processor is not INACTIVE.
        """
        if extra_clusters < 1:
            raise ValueError("need at least one extra cluster")
        instance = self._scalable(name)
        tracer = telemetry.tracer()
        with telemetry.scope("scaling.up_scale"), tracer.span(
            "scaling.up_scale", kind="scaling",
            processor=name, extra_clusters=extra_clusters,
        ):
            extension = self._find_extension(
                instance.region, extra_clusters, within=within
            )
            if extension is None:
                raise RegionError(
                    f"no free {extra_clusters}-cluster extension "
                    f"adjacent to {name!r}'s tail "
                    f"{instance.region.path[-1]}"
                )
            ext_region = path_region(extension)
            op = self.vlsi.configurator.configure(ext_region, owner=name)
            instance.config_cycles += op.config_cycles
            instance.last_config_cycles = op.config_cycles
            # chain the junction: old tail -> new head
            tail, head = instance.region.path[-1], extension[0]
            self.vlsi.fabric.program(((tail, head),), SwitchState.CHAINED)
            instance.region = Region(instance.region.path + tuple(extension))
            if tracer.enabled:
                tracer.instant(
                    "scaling.junction.chained",
                    tail=str(tail), head=str(head),
                )
                tracer.advance()
        telemetry.counter("scaling.up_scales").inc()
        self._observe_census()
        return instance

    def _find_extension(
        self,
        region: Region,
        n: int,
        within: Optional[Collection[Coord]] = None,
    ) -> Optional[List[Coord]]:
        """DFS for a free path of ``n`` clusters starting adjacent to the
        region's tail, avoiding the region itself and (when ``within``
        is given) anything outside that scope."""
        fabric = self.vlsi.fabric
        blocked: Set[Coord] = set(region.path)
        scope: Optional[Set[Coord]] = None if within is None else set(within)

        def dfs(path: List[Coord]) -> Optional[List[Coord]]:
            if len(path) == n:
                return path
            cur = path[-1] if path else region.path[-1]
            for nbr in fabric.neighbors(cur):
                if nbr in blocked or nbr in path:
                    continue
                if scope is not None and nbr not in scope:
                    continue
                if not fabric.cluster(nbr).is_free:
                    continue
                found = dfs(path + [nbr])
                if found is not None:
                    return found
            return None

        return dfs([])

    # -- down-scaling --------------------------------------------------------

    def down_scale(self, name: str, drop_clusters: int) -> ProcessorInstance:
        """Shrink a processor by unchaining clusters from its tail.

        "The down-scale ... is possible with wormhole routing along with
        the unidirectional routing by clearing active state" — dropped
        clusters return to the release pool.

        Raises
        ------
        RegionError
            If the processor would shrink to nothing (use
            :meth:`VLSIProcessor.destroy_processor` for that), or is a
            ring.
        """
        instance = self._scalable(name)
        if drop_clusters < 1:
            raise ValueError("need at least one cluster to drop")
        if drop_clusters >= len(instance.region):
            raise RegionError(
                f"dropping {drop_clusters} of {len(instance.region)} "
                "clusters leaves nothing; destroy the processor instead"
            )
        tracer = telemetry.tracer()
        with telemetry.scope("scaling.down_scale"), tracer.span(
            "scaling.down_scale", kind="scaling",
            processor=name, drop_clusters=drop_clusters,
        ):
            if tracer.enabled:
                tracer.advance()
            keep = instance.region.path[:-drop_clusters]
            dropped = instance.region.path[-drop_clusters:]
            # unchain the junction and the dropped sub-path, then free clusters
            self.vlsi.fabric.unchain_path(keep[-1:] + dropped)
            for coord in dropped:
                self.vlsi.fabric.cluster(coord).free()
            instance.region = Region(keep)
        telemetry.counter("scaling.down_scales").inc()
        self._observe_census()
        return instance

    # -- fusion / splitting ---------------------------------------------------

    def fuse(self, first: str, second: str, fused_name: Optional[str] = None) -> ProcessorInstance:
        """Fuse two processors into one large-scale processor.

        The tail of ``first`` must be grid-adjacent to the head of
        ``second`` (their linear arrays concatenate).  Both must be
        INACTIVE, and neither may be a ring (:class:`RegionError`).  The
        fused processor keeps ``first``'s resources under ``fused_name``
        (default: ``first``'s name).
        """
        a = self._scalable(first)
        b = self._scalable(second)
        tail, head = a.region.path[-1], b.region.path[0]
        if abs(tail[0] - head[0]) + abs(tail[1] - head[1]) != 1:
            raise RegionError(
                f"cannot fuse: {first!r} tail {tail} not adjacent to "
                f"{second!r} head {head}"
            )
        name = fused_name or first
        if name != first and name != second and name in self.vlsi.processors:
            raise ConfigurationError(f"processor {name!r} already exists")
        tracer = telemetry.tracer()
        with telemetry.scope("scaling.fuse"), tracer.span(
            "scaling.fuse", kind="scaling", first=first, second=second,
        ):
            if tracer.enabled:
                tracer.advance()
            # chain the junction and unify ownership
            self.vlsi.fabric.program(((tail, head),), SwitchState.CHAINED)
            for coord in b.region.path:
                cluster = self.vlsi.fabric.cluster(coord)
                cluster.free()
                cluster.allocate(name)
            if name != first:
                for coord in a.region.path:
                    cluster = self.vlsi.fabric.cluster(coord)
                    cluster.free()
                    cluster.allocate(name)
            fused_region = Region(a.region.path + b.region.path)
            del self.vlsi.processors[second]
            del self.vlsi.processors[first]
            fused = ProcessorInstance(name=name, region=fused_region)
            fused.state.configure()
            self.vlsi.processors[name] = fused
        telemetry.counter("scaling.fuses").inc()
        self._observe_census()
        return fused

    def split(
        self, name: str, at: int, head_name: str, tail_name: str
    ) -> Tuple[ProcessorInstance, ProcessorInstance]:
        """Split one processor into two at linear position ``at``.

        The first ``at`` clusters become ``head_name``, the rest
        ``tail_name``.  The junction switch is unchained; both halves
        come back INACTIVE.  A ring is refused (:class:`RegionError`).
        """
        instance = self._scalable(name)
        if not 0 < at < len(instance.region):
            raise RegionError(
                f"split point {at} outside (0, {len(instance.region)})"
            )
        for new in (head_name, tail_name):
            if new != name and new in self.vlsi.processors:
                raise ConfigurationError(f"processor {new!r} already exists")
        if head_name == tail_name:
            raise ConfigurationError("split halves need distinct names")
        tracer = telemetry.tracer()
        with telemetry.scope("scaling.split"), tracer.span(
            "scaling.split", kind="scaling", processor=name, at=at,
        ):
            if tracer.enabled:
                tracer.advance()
            head_path = instance.region.path[:at]
            tail_path = instance.region.path[at:]
            junction = (head_path[-1], tail_path[0])
            self.vlsi.fabric.program((junction,), SwitchState.UNCHAINED)
            del self.vlsi.processors[name]
            halves = []
            for new_name, path in ((head_name, head_path), (tail_name, tail_path)):
                for coord in path:
                    cluster = self.vlsi.fabric.cluster(coord)
                    cluster.free()
                    cluster.allocate(new_name)
                inst = ProcessorInstance(name=new_name, region=Region(path))
                inst.state.configure()
                self.vlsi.processors[new_name] = inst
                halves.append(inst)
        telemetry.counter("scaling.splits").inc()
        self._observe_census()
        return halves[0], halves[1]

    # -- helpers -----------------------------------------------------------

    def _observe_census(self) -> None:
        """Publish the chip-wide Figure 6(e) census as gauges after a
        scaling operation — one ``enabled`` check when observation is
        off, so the hot path stays free (same discipline as tracing)."""
        if not telemetry.observer().enabled:
            return
        for state, count in self.vlsi.lifecycle_census().items():
            telemetry.gauge(f"scaling.census.{state}").set(float(count))

    def _scalable(self, name: str) -> ProcessorInstance:
        """``name``'s instance, if it is INACTIVE and not a ring."""
        instance = self.vlsi.processor(name)
        if instance.state.state is not ProcessorState.INACTIVE:
            raise StateTransitionError(
                f"scaling needs {name!r} INACTIVE, is {instance.state.state.value}"
            )
        if instance.region.ring:
            raise RegionError(f"cannot scale {name!r}: it is a ring")
        return instance
