"""The adaptive-processor pipeline (paper section 2.2, Figures 1 and 2.3).

Five stages process the global configuration data stream:

1. **Pointer Update** — advance the stream pointer;
2. **Request Fetch** — fetch the element (like instruction fetch);
3. **Request Evaluation** — evaluate the request (memory accesses here);
4. **Request** — search the requested object IDs; on an object
   cache-miss, miss-handling elements are inserted: the logical objects
   are loaded from the library into configuration-buffer objects and a
   stack shift enters them into the object space;
5. **Acquirement** — the hit objects acknowledge, wake their execution
   fabric, and receive acquirement signals from the WSRF that select the
   communication channel used for chaining (the dynamic CSD grant).

Modelling notes (recorded in DESIGN.md): hits do not reorder the stack
while a datapath is being configured — physically, shifting an object
with live chains would tear its wiring; the stack's LRU order is entry
order, and the exact-LRU mathematics lives separately in
:mod:`repro.ap.cache_model`.  Eviction victims are the lowest *unacquired*
objects; if every resident object is acquired the working set genuinely
exceeds the array and :class:`repro.errors.CapacityError` is raised —
the paper's "the stack distance has to be less than or equal to C" rule
made operational.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    CapacityError,
    ChannelAllocationError,
    ConfigurationError,
)
from repro.csd.dynamic_csd import Connection, DynamicCSDNetwork
from repro.ap.config_stream import ConfigElement, ConfigStream
from repro.ap.stack import ObjectStack
from repro.ap.virtual_hw import ObjectLibrary, SwapScheduler
from repro.ap.wsrf import WSRF

__all__ = ["Stage", "StageEvent", "PipelineStats", "AdaptiveProcessor"]


class Stage(enum.Enum):
    POINTER_UPDATE = "pointer-update"
    REQUEST_FETCH = "request-fetch"
    REQUEST_EVALUATION = "request-evaluation"
    REQUEST = "request"
    ACQUIREMENT = "acquirement"


@dataclass(frozen=True)
class StageEvent:
    """One pipeline-stage occupancy, for the Figure 1 trace bench."""

    cycle: int
    stage: Stage
    element_index: int
    detail: str = ""


@dataclass
class PipelineStats:
    """Aggregate outcome of running one configuration stream."""

    elements: int = 0
    object_requests: int = 0
    hits: int = 0
    misses: int = 0
    stall_cycles: int = 0
    total_cycles: int = 0
    evictions: int = 0
    connections: int = 0
    channels_used: int = 0

    @property
    def hit_rate(self) -> float:
        if self.object_requests == 0:
            return 0.0
        return self.hits / self.object_requests


class AdaptiveProcessor:
    """One AP: stack + WSRF + library + dynamic CSD network + pipeline.

    Parameters
    ----------
    capacity:
        Array size C (number of physical objects).
    library:
        Object library resident in the memory blocks.
    n_channels:
        Dynamic CSD channel provisioning (default C/2, the Figure 3 rule).
    wsrf_capacity:
        Working-set register file entries (Table 3 default: 40).
    config_buffers:
        Configuration-buffer objects available for concurrent library
        loads on a miss (§2.3: "its logical object(s) is loaded from the
        library ... to a configuration buffer object(s)"; Table 3 sizes
        three CFBs).  More misses than buffers load in batches.
    trace_stages:
        Record :class:`StageEvent` for every stage occupancy (Figure 1
        bench); off by default to keep long runs light.
    """

    PIPELINE_DEPTH = 5

    #: Table 3: "64b x2 Reg. x2 in CFB x3" — three configuration buffers.
    DEFAULT_CONFIG_BUFFERS = 3

    def __init__(
        self,
        capacity: int,
        library: ObjectLibrary,
        n_channels: Optional[int] = None,
        wsrf_capacity: int = 40,
        config_buffers: int = DEFAULT_CONFIG_BUFFERS,
        trace_stages: bool = False,
    ) -> None:
        if config_buffers < 1:
            raise ValueError("need at least one configuration buffer")
        self.stack = ObjectStack(capacity)
        self.library = library
        self.scheduler = SwapScheduler(library)
        self.wsrf = WSRF(wsrf_capacity)
        self.network = DynamicCSDNetwork(max(capacity, 2), n_channels)
        self.config_buffers = config_buffers
        self.trace_stages = trace_stages
        self.events: List[StageEvent] = []
        self._connections: Dict[Tuple[int, int], Connection] = {}

    # -- public API ------------------------------------------------------

    def run(self, stream: ConfigStream) -> PipelineStats:
        """Process a whole configuration stream; returns the statistics."""
        stats = PipelineStats()
        issue_cycle = 0
        stream.rewind()
        index = 0
        while not stream.exhausted:
            element = stream.fetch()
            stall = self._process_element(element, index, issue_cycle, stats)
            stats.stall_cycles += stall
            issue_cycle += 1 + stall
            index += 1
        stats.elements = index
        # last element leaves acquirement PIPELINE_DEPTH-1 cycles after issue
        stats.total_cycles = (
            issue_cycle + self.PIPELINE_DEPTH - 1 if index else 0
        )
        stats.channels_used = self.network.used_channels()
        return stats

    def release_object(self, object_id: int) -> None:
        """Fire the release token for one object: drop its WSRF entry,
        deactivate it, and free the channels of its chains."""
        if self.wsrf.lookup(object_id) is None:
            raise ConfigurationError(f"object {object_id} not acquired")
        self.wsrf.release(object_id)
        self.stack.release(object_id)
        for key, conn in list(self._connections.items()):
            if object_id in key:
                try:
                    self.network.disconnect(conn)
                except ChannelAllocationError:
                    pass  # already evicted by a stack shift
                del self._connections[key]

    def configured_connections(self) -> List[Tuple[int, int]]:
        """Live (source_id, sink_id) chains of the configured datapath."""
        return list(self._connections)

    # -- pipeline internals ---------------------------------------------------

    def _process_element(
        self,
        element: ConfigElement,
        index: int,
        issue_cycle: int,
        stats: PipelineStats,
    ) -> int:
        """Run one element through the five stages; returns stall cycles."""
        self._trace(issue_cycle + 0, Stage.POINTER_UPDATE, index)
        self._trace(issue_cycle + 1, Stage.REQUEST_FETCH, index)
        self._trace(issue_cycle + 2, Stage.REQUEST_EVALUATION, index)

        # stage 4: request — hit/miss per referenced ID
        request_cycle = issue_cycle + 3
        distinct = set(element.referenced_ids)
        if len(distinct) > self.stack.capacity:
            raise CapacityError(
                f"element references {len(distinct)} objects but the array "
                f"capacity is {self.stack.capacity}"
            )
        verdicts = {oid: oid in self.stack for oid in element.referenced_ids}
        missed = [oid for oid, hit in verdicts.items() if not hit]
        stats.object_requests += len(verdicts)
        stats.hits += len(verdicts) - len(missed)
        stats.misses += len(missed)
        self._trace(
            request_cycle,
            Stage.REQUEST,
            index,
            detail=f"miss={missed}" if missed else "hit",
        )

        # miss handling: load to configuration buffers, then one forced
        # stack shift per loaded object enters them into the object space
        stall = 0
        if missed:
            loaded = []
            load_latency = 0
            for oid in missed:
                logical, latency = self.library.load(oid)
                loaded.append(logical)
                load_latency = max(load_latency, latency)
            for logical in loaded:
                self._make_room(protected=distinct)
                evicted = self.stack.push(logical)
                if evicted is not None:
                    self.scheduler.schedule_store(evicted)
                    stats.evictions += 1
                self.network.stack_shift(1)
                self._shift_wsrf_positions()
            # loads overlap only up to the configuration-buffer count:
            # misses beyond it wait for a buffer in later batches
            batches = -(-len(missed) // self.config_buffers)  # ceil
            stall = batches * load_latency + len(missed)
            self._trace(
                request_cycle + stall,
                Stage.REQUEST,
                index,
                detail="re-request after stack shift",
            )

        # stage 5: acquirement — wake, acquire, chain
        acquire_cycle = request_cycle + stall + 1
        self._acquire_and_chain(element, stats)
        self._trace(acquire_cycle, Stage.ACQUIREMENT, index)
        return stall

    def _make_room(self, protected: set) -> None:
        """Ensure a push cannot evict an acquired object or one the
        current element needs: pre-evict the lowest evictable resident.

        Raises
        ------
        CapacityError
            If every resident object is acquired or needed — the working
            set exceeds the array capacity C.
        """
        if not self.stack.is_full:
            return

        def evictable(oid: int) -> bool:
            return oid not in self.wsrf and oid not in protected

        bottom = self.stack.at(self.stack.capacity - 1)
        assert bottom is not None
        if evictable(bottom.object_id):
            return  # normal bottom eviction by push() is safe
        for pos in range(self.stack.capacity - 1, -1, -1):
            resident = self.stack.at(pos)
            if resident is not None and evictable(resident.object_id):
                victim = self.stack.evict(resident.object_id)
                self.scheduler.schedule_store(victim)
                self._shift_wsrf_positions()
                return
        raise CapacityError(
            f"working set exceeds array capacity {self.stack.capacity}: "
            "every resident object is acquired or requested"
        )

    def _shift_wsrf_positions(self) -> None:
        """Track acquired objects through a stack shift."""
        for entry in self.wsrf.working_set():
            pos = self.stack.position_of(entry.object_id)
            if pos is not None and pos != entry.position:
                self.wsrf.update_position(entry.object_id, pos)

    def _acquire_and_chain(self, element: ConfigElement, stats: PipelineStats) -> None:
        """Acquirement stage: wake objects, record WSRF entries, chain
        each source to the sink over the dynamic CSD network."""
        for oid in element.referenced_ids:
            pos = self.stack.position_of(oid)
            if pos is None:
                raise ConfigurationError(
                    f"object {oid} vanished between request and acquirement"
                )
            self.stack.wake(oid)
            if oid not in self.wsrf:
                self.wsrf.acquire(oid, pos)
        sink_pos = self.stack.position_of(element.sink)
        assert sink_pos is not None
        for src in element.sources:
            key = (src, element.sink)
            if key in self._connections:
                continue  # already chained by an earlier element
            src_pos = self.stack.position_of(src)
            assert src_pos is not None
            if src_pos == sink_pos:
                raise ConfigurationError(
                    f"objects {src} and {element.sink} share position {src_pos}"
                )
            conn = self.network.connect(src_pos, sink_pos)
            self._connections[key] = conn
            stats.connections += 1

    def _trace(
        self, cycle: int, stage: Stage, index: int, detail: str = ""
    ) -> None:
        if self.trace_stages:
            self.events.append(StageEvent(cycle, stage, index, detail))
