"""Dataflow-graph IR bridging applications and the AP substrate.

A :class:`DataflowGraph` is the application-side description of a
datapath: nodes with operations, edges with dependencies.  It lowers to
the three AP-side artifacts:

* a **configuration stream** (:meth:`DataflowGraph.to_config_stream`) —
  the global configuration data that requests and chains the objects;
* an **object library** (:meth:`DataflowGraph.to_library`) — the logical
  objects stored in memory blocks;
* an executable **datapath** (:meth:`DataflowGraph.to_datapath`) for
  functional simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.ap.config_stream import ConfigElement, ConfigStream
from repro.ap.datapath import Datapath
from repro.ap.objects import LogicalObject, ObjectKind, Operation
from repro.ap.virtual_hw import ObjectLibrary

__all__ = ["DFNode", "DataflowGraph"]


@dataclass(frozen=True)
class DFNode:
    """One application operation."""

    node_id: int
    operation: Operation
    sources: Tuple[int, ...] = ()
    init_data: Any = None
    kind: ObjectKind = ObjectKind.COMPUTE

    def to_logical(self) -> LogicalObject:
        return LogicalObject(self.node_id, self.operation, self.init_data, self.kind)


class DataflowGraph:
    """An ordered collection of :class:`DFNode` in definition order.

    Definition order matters: it becomes the configuration-stream order,
    which in turn fixes the dependency distances the stack sees.
    """

    def __init__(self, nodes: Sequence[DFNode] = ()) -> None:
        self._nodes: List[DFNode] = []
        self._by_id: Dict[int, DFNode] = {}
        for node in nodes:
            self.add_node(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self):
        return iter(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._by_id

    def node(self, node_id: int) -> DFNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ConfigurationError(f"no node {node_id} in graph") from None

    def add_node(self, node: DFNode) -> DFNode:
        if node.node_id in self._by_id:
            raise ConfigurationError(f"duplicate node id {node.node_id}")
        self._nodes.append(node)
        self._by_id[node.node_id] = node
        return node

    def add(
        self,
        node_id: int,
        operation: Operation,
        sources: Sequence[int] = (),
        init_data: Any = None,
    ) -> DFNode:
        """Convenience builder."""
        return self.add_node(DFNode(node_id, operation, tuple(sources), init_data))

    # -- lowering ---------------------------------------------------------

    def to_config_stream(self) -> ConfigStream:
        """The global configuration data stream for this graph."""
        return ConfigStream(
            [ConfigElement(n.node_id, n.sources) for n in self._nodes]
        )

    def to_library(self, load_latency: int = 4) -> ObjectLibrary:
        """The object library holding every node's logical object."""
        return ObjectLibrary(
            [n.to_logical() for n in self._nodes], load_latency=load_latency
        )

    def to_datapath(self) -> Datapath:
        """An executable datapath (validates arities and acyclicity)."""
        dp = Datapath()
        for node in self._nodes:
            dp.add(node.to_logical(), node.sources)
        dp.topological_order()  # raise early on cycles/missing sources
        return dp

    # -- analysis -----------------------------------------------------------

    def input_ids(self) -> List[int]:
        """Nodes no other node feeds — the graph's external inputs
        (CONST nodes count as inputs too)."""
        return [n.node_id for n in self._nodes if not n.sources]

    def output_ids(self) -> List[int]:
        """Nodes nothing consumes — the graph's results."""
        consumed = {s for n in self._nodes for s in n.sources}
        return [n.node_id for n in self._nodes if n.node_id not in consumed]

    def edge_count(self) -> int:
        return sum(len(n.sources) for n in self._nodes)

    def execute(self, inputs: Optional[Dict[int, Any]] = None) -> Dict[int, Any]:
        """One-shot functional evaluation (via the datapath lowering)."""
        return self.to_datapath().execute(inputs=inputs)
