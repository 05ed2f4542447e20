"""Configured-datapath execution with release tokens (section 2.3).

Once objects are acquired and chained, "the objects are free from
control" — the datapath executes as pure dataflow.  "An object is
released by receiving and firing release token(s) from the preceding
object(s)": when an object has produced its value and all its consumers
have consumed it, its release token fires and the resource returns to
the pool as early as possible ("This technique reduces the idling time
as rapidly as possible", section 5).

:class:`Datapath` is the executable view: a DAG of
:class:`DatapathNode` evaluated in topological order, tracking the cycle
at which each release token fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.ap.config_stream import ConfigStream
from repro.ap.objects import LogicalObject

__all__ = ["DatapathNode", "Datapath"]


@dataclass
class DatapathNode:
    """One chained object in the datapath DAG."""

    logical: LogicalObject
    sources: Tuple[int, ...] = ()
    #: Consumers (object IDs) — release fires once all have consumed.
    consumers: List[int] = field(default_factory=list)
    value: Any = None
    evaluated_at: Optional[int] = None
    released_at: Optional[int] = None

    @property
    def object_id(self) -> int:
        return self.logical.object_id


class Datapath:
    """An executable dataflow graph of chained logical objects."""

    def __init__(self) -> None:
        self._nodes: Dict[int, DatapathNode] = {}

    # -- construction -----------------------------------------------------

    def add(self, logical: LogicalObject, sources: Sequence[int] = ()) -> DatapathNode:
        """Add an object with its source chains.

        Raises
        ------
        ConfigurationError
            On duplicate IDs or arity mismatch with the operation.
        """
        if logical.object_id in self._nodes:
            raise ConfigurationError(
                f"datapath already contains object {logical.object_id}"
            )
        if logical.arity != len(sources):
            raise ConfigurationError(
                f"object {logical.object_id} ({logical.operation.value}) "
                f"needs {logical.arity} sources, got {len(sources)}"
            )
        node = DatapathNode(logical, tuple(sources))
        self._nodes[logical.object_id] = node
        for src in sources:
            if src in self._nodes:
                self._nodes[src].consumers.append(logical.object_id)
        return node

    @classmethod
    def from_stream(
        cls, stream: ConfigStream, library: Dict[int, LogicalObject]
    ) -> "Datapath":
        """Build the datapath a configuration stream describes."""
        dp = cls()
        for element in stream:
            logical = library.get(element.sink)
            if logical is None:
                raise ConfigurationError(
                    f"stream references unknown object {element.sink}"
                )
            dp.add(logical, element.sources)
        return dp

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._nodes

    def node(self, object_id: int) -> DatapathNode:
        try:
            return self._nodes[object_id]
        except KeyError:
            raise ConfigurationError(f"no object {object_id} in datapath") from None

    def topological_order(self) -> List[DatapathNode]:
        """Nodes in dependency order.

        Raises
        ------
        ConfigurationError
            If the chains contain a cycle (not a legal datapath) or
            reference missing objects.
        """
        order: List[DatapathNode] = []
        state: Dict[int, int] = {}  # 0 new, 1 visiting, 2 done

        def visit(oid: int) -> None:
            mark = state.get(oid, 0)
            if mark == 2:
                return
            if mark == 1:
                raise ConfigurationError(f"cycle through object {oid}")
            node = self._nodes.get(oid)
            if node is None:
                raise ConfigurationError(f"chain references missing object {oid}")
            state[oid] = 1
            for src in node.sources:
                visit(src)
            state[oid] = 2
            order.append(node)

        for oid in self._nodes:
            visit(oid)
        return order

    def depth(self) -> int:
        """Longest dependency chain — the datapath's critical path."""
        depths: Dict[int, int] = {}
        for node in self.topological_order():
            depths[node.object_id] = 1 + max(
                (depths[s] for s in node.sources), default=0
            )
        return max(depths.values(), default=0)

    # -- execution --------------------------------------------------------

    def execute(self, inputs: Optional[Dict[int, Any]] = None) -> Dict[int, Any]:
        """Evaluate the whole datapath once.

        Parameters
        ----------
        inputs:
            Values for *input* objects (overrides their evaluation) —
            how the preceding processor's data lands in memory blocks.

        Returns
        -------
        ``{object_id: value}`` for every node.
        """
        inputs = inputs or {}
        values: Dict[int, Any] = {}
        pending_consumers: Dict[int, int] = {}
        cycle = 0
        for node in self.topological_order():
            if node.object_id in inputs:
                node.value = inputs[node.object_id]
            else:
                node.value = node.logical.evaluate(
                    [values[s] for s in node.sources]
                )
            values[node.object_id] = node.value
            node.evaluated_at = cycle
            pending_consumers[node.object_id] = len(node.consumers)
            # fire release tokens to sources whose consumers all consumed
            for src in node.sources:
                pending_consumers[src] -= 1
                if pending_consumers[src] == 0:
                    self._nodes[src].released_at = cycle
            cycle += 1
        # sinks (no consumers) release as soon as they evaluate
        for node in self._nodes.values():
            if not node.consumers and node.released_at is None:
                node.released_at = node.evaluated_at
        return values

    def released_order(self) -> List[int]:
        """Object IDs sorted by release time — resources coming back to
        the pool, earliest first."""
        done = [n for n in self._nodes.values() if n.released_at is not None]
        return [n.object_id for n in sorted(done, key=lambda n: (n.released_at, n.object_id))]
