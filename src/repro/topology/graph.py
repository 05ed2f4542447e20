"""Graph export of the S-topology (optional networkx integration).

Turns a fabric into a :class:`networkx.Graph` for connectivity analysis
— either the *potential* topology (every switch position) or the
*configured* one (chained switches only), which is how the bench and
examples sanity-check that regions really are isolated components.

networkx is an optional dependency; importing this module without it
raises a clear error only when the functions are called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import TopologyError
from repro.topology.s_topology import STopology

if TYPE_CHECKING:  # pragma: no cover
    import networkx

__all__ = ["to_networkx", "configured_components", "verify_linear_region"]


def _nx():
    try:
        import networkx
    except ImportError as exc:  # pragma: no cover
        raise TopologyError(
            "networkx is required for graph export: pip install networkx"
        ) from exc
    return networkx


def to_networkx(fabric: STopology, chained_only: bool = False) -> "networkx.Graph":
    """Export the fabric as an undirected graph.

    Parameters
    ----------
    chained_only:
        ``False`` — one edge per chain-switch position (the potential
        topology, a grid graph);
        ``True`` — only edges whose chain switch is currently CHAINED
        (the configured topology).
    """
    nx = _nx()
    graph = nx.Graph()
    for cluster in fabric.clusters():
        graph.add_node(
            cluster.coord,
            owner=cluster.owner,
            defective=cluster.defective,
        )
    for coord in fabric.linear_order():
        for nbr in fabric.neighbors(coord):
            if coord < nbr:  # undirected: add each pair once
                switch = fabric.chain_switch(coord, nbr)
                if chained_only and not switch.is_chained:
                    continue
                graph.add_edge(coord, nbr, chained=switch.is_chained)
    return graph


def configured_components(fabric: STopology) -> list:
    """Connected components of the configured (chained) topology —
    singletons are unfused clusters, larger components are processors."""
    nx = _nx()
    return [set(c) for c in nx.connected_components(to_networkx(fabric, True))]


def verify_linear_region(fabric: STopology, coords: set) -> bool:
    """Check a configured component is a simple path or cycle — the only
    shapes a stack-structured AP may take (§3.1).

    A path has exactly two degree-1 endpoints (or is a single node); a
    ring has every degree equal to 2.
    """
    nx = _nx()
    graph = to_networkx(fabric, chained_only=True).subgraph(coords)
    if graph.number_of_nodes() != len(coords):
        return False
    if not nx.is_connected(graph) and len(coords) > 1:
        return False
    degrees = [d for _, d in graph.degree()]
    if len(coords) == 1:
        return True
    ones = degrees.count(1)
    twos = degrees.count(2)
    if ones == 2 and ones + twos == len(degrees):
        return True  # simple path
    if ones == 0 and twos == len(degrees):
        return True  # ring
    return False
