"""The S-topology cluster grid (paper Figure 4(a), section 3.1).

The fabric is a ``rows × cols`` grid of replicated clusters.  Between
every pair of Manhattan-adjacent clusters sit programmable switches:

* one **bidirectional chain switch** (the chain interconnection network —
  the dynamic CSD channels of section 2.6 run over it), and
* one **unidirectional stack-shift switch per orientation** (the stack
  only shifts top→bottom, but which physical direction that is depends on
  how a region threads the grid).

This satisfies the three properties section 3.1 demands of the topology:

1. *hierarchical / fractal* — the same cluster pattern replicates at every
   scale (tested by comparing sub-grids);
2. *minimum number of layout patterns* — exactly one cluster pattern and
   one switch pattern;
3. *regular chain/unchain switch points* — a switch between every
   adjacent pair, nowhere else.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import TopologyError
from repro.topology.cluster import Cluster, ClusterResources
from repro.topology.folding import fold_path_is_adjacent, serpentine_order
from repro.topology.switches import (
    BidirectionalSwitch,
    ProgrammableSwitch,
    SwitchState,
    UnidirectionalSwitch,
)

__all__ = ["STopology"]

Coord = Tuple[int, int]
Edge = Tuple[Coord, Coord]


class STopology:
    """A grid of clusters joined by programmable switches.

    Parameters
    ----------
    rows, cols:
        Grid dimensions (Figure 4(a) shows 8×8).
    resources:
        Per-cluster object counts; defaults to the Table 4 minimum AP.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        resources: Optional[ClusterResources] = None,
    ) -> None:
        if rows < 1 or cols < 1:
            raise TopologyError("S-topology needs at least a 1x1 grid")
        self.rows = rows
        self.cols = cols
        self.resources = resources or ClusterResources()
        #: The serpentine stack order (Figure 4(c)), folded once.
        self.order: Tuple[Coord, ...] = tuple(serpentine_order(rows, cols))
        #: Each coordinate's position along :attr:`order` — the bit it
        #: owns in a fold-order mask (:func:`~repro.topology.folding.fold_mask`).
        self.fold: Dict[Coord, int] = {
            coord: index for index, coord in enumerate(self.order)
        }
        self._clusters: Dict[Coord, Cluster] = {
            (r, c): Cluster((r, c), self.resources)
            for r in range(rows)
            for c in range(cols)
        }
        # chain network: one bidirectional switch per undirected adjacency,
        # reachable from both orientations and oriented as first seen
        chains: Dict[Edge, BidirectionalSwitch] = {}
        unique_chains: List[BidirectionalSwitch] = []
        # stack-shift network: one unidirectional switch per ordered adjacency
        shifts: Dict[Edge, UnidirectionalSwitch] = {}
        for coord in self._clusters:
            for nbr in self.neighbors(coord):
                edge = (coord, nbr)
                if edge not in chains:
                    switch = chains[edge] = chains[nbr, coord] = (
                        BidirectionalSwitch(edge)
                    )
                    unique_chains.append(switch)
                shifts[edge] = UnidirectionalSwitch(edge)
        self._chain_switches = chains
        self._shift_switches = shifts
        #: Every chain switch once, in row-major first-seen order.
        self._unique_chains: Tuple[BidirectionalSwitch, ...] = tuple(unique_chains)

    # -- structural queries ---------------------------------------------------

    def __contains__(self, coord: Coord) -> bool:
        return coord in self._clusters

    def __len__(self) -> int:
        return len(self._clusters)

    def cluster(self, coord: Coord) -> Cluster:
        """The cluster at ``coord``; raises :class:`TopologyError` if absent."""
        try:
            return self._clusters[coord]
        except KeyError:
            raise TopologyError(f"no cluster at {coord} in {self.rows}x{self.cols} grid") from None

    def clusters(self) -> Iterator[Cluster]:
        """All clusters, row-major."""
        return iter(self._clusters.values())

    def neighbors(self, coord: Coord) -> List[Coord]:
        """Manhattan neighbours of ``coord`` inside the grid, N/S/W/E order."""
        r, c = coord
        if coord not in self._clusters and not (
            0 <= r < self.rows and 0 <= c < self.cols
        ):
            raise TopologyError(f"{coord} outside the grid")
        out = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nbr = (r + dr, c + dc)
            if 0 <= nbr[0] < self.rows and 0 <= nbr[1] < self.cols:
                out.append(nbr)
        return out

    def free_mask(self, within: Optional[Iterable[Coord]] = None) -> int:
        """The fold-order bitmask of the free clusters: bit ``fold[coord]``
        is set when that cluster is unowned and not defective.

        Derived from cluster state on every call, so it can never
        disagree with it.  With ``within`` (coordinates of this fabric)
        only those clusters are visited — a tenant's shard costs its own
        size, not the die's.
        The fold-run search of :mod:`repro.topology.folding` reads it.
        """
        clusters, fold = self._clusters, self.fold
        bits = 0
        for coord in clusters if within is None else within:
            if clusters[coord].is_free:
                bits |= 1 << fold[coord]
        return bits

    def linear_order(self) -> List[Coord]:
        """The whole-grid serpentine stack order (Figure 4(c)): a fresh
        list of :attr:`order` the caller may mutate."""
        return list(self.order)

    # -- switches --------------------------------------------------------

    def chain_switch(self, a: Coord, b: Coord) -> BidirectionalSwitch:
        """The chain-network switch between adjacent clusters ``a`` and ``b``."""
        try:
            return self._chain_switches[a, b]
        except KeyError:
            raise TopologyError(f"no chain switch between {a} and {b}") from None

    def shift_switch(self, src: Coord, dst: Coord) -> UnidirectionalSwitch:
        """The stack-shift switch carrying shifts ``src -> dst``."""
        try:
            return self._shift_switches[(src, dst)]
        except KeyError:
            raise TopologyError(f"no shift switch {src} -> {dst}") from None

    def all_switches(self) -> Iterator[ProgrammableSwitch]:
        yield from self._unique_chains
        yield from self._shift_switches.values()

    def switch_count(self) -> Tuple[int, int]:
        """``(chain, shift)`` switch counts — regular by construction:
        one chain switch per grid edge, two shift switches per grid edge."""
        return len(self._unique_chains), len(self._shift_switches)

    def chain_switch_states(self) -> Dict[str, int]:
        """Programming-register value of every chain switch, keyed by a
        canonical edge label ``"r0c0-r0c1"`` (endpoints sorted row-major)
        — §3.2's switch settings as one samplable observation: 1 =
        CHAINED, 0 = UNCHAINED.  Deterministically ordered so exported
        heatmaps are byte-stable."""
        states: Dict[str, int] = {}
        for switch in self._unique_chains:
            a, b = sorted(switch.endpoints)
            label = f"r{a[0]}c{a[1]}-r{b[0]}c{b[1]}"
            states[label] = 1 if switch.is_chained else 0
        return dict(sorted(states.items()))

    # -- chaining regions -------------------------------------------------

    def chain_path(self, path: Iterable[Coord]) -> None:
        """Program the switches so the clusters along ``path`` form one
        linear array: chain switches joined, stack-shift switches set in
        the path direction (top of stack = first element).

        Raises
        ------
        TopologyError
            If the path is not grid-adjacent at every step.
        """
        path = list(path)
        if not fold_path_is_adjacent(path):
            raise TopologyError("chain path must step between adjacent clusters")
        self.program(zip(path, path[1:]), SwitchState.CHAINED)

    def unchain_path(self, path: Iterable[Coord]) -> None:
        """Undo :meth:`chain_path` (split the array back apart)."""
        path = list(path)
        self.program(zip(path, path[1:]), SwitchState.UNCHAINED)

    def program(
        self, edges: Iterable[Tuple[Coord, Coord]], state: SwitchState
    ) -> None:
        """Store ``state`` into each ``(a, b)`` edge's chain switch and
        its ``a -> b`` stack-shift switch — the one switch-pair write
        that chains, unchains and wormhole-configures a region (§3.2-3.3).

        Raises
        ------
        TopologyError
            If an edge does not join adjacent clusters of this grid.
        """
        if not isinstance(state, SwitchState):
            raise TypeError("state must be a SwitchState")
        chain, shift = self._chain_switches, self._shift_switches
        for a, b in edges:
            try:
                chain[a, b].state = state
            except KeyError:
                raise TopologyError(
                    f"no chain switch between {a} and {b}"
                ) from None
            shift[a, b].state = state

    def chained_component(self, start: Coord) -> Set[Coord]:
        """All clusters reachable from ``start`` over chained chain-switches.

        This is what physically defines the extent of one fused processor.
        """
        if start not in self._clusters:
            raise TopologyError(f"{start} outside the grid")
        seen = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for nbr in self.neighbors(cur):
                if nbr not in seen and self.chain_switch(cur, nbr).is_chained:
                    seen.add(nbr)
                    frontier.append(nbr)
        return seen

    # -- fractal / regularity checks (section 3.1 properties) -----------------

    def is_subgrid_isomorphic(self, rows: int, cols: int) -> bool:
        """Property 1: any sub-grid has the same structure (cluster pattern
        and switch placement) as a fresh fabric of that size."""
        if rows > self.rows or cols > self.cols:
            return False
        sub = STopology(rows, cols, self.resources)
        return sub.switch_count() == self._expected_switch_count(rows, cols)

    @staticmethod
    def _expected_switch_count(rows: int, cols: int) -> Tuple[int, int]:
        edges = rows * (cols - 1) + cols * (rows - 1)
        return edges, 2 * edges

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """ASCII sketch: one character per cluster.

        ``.`` free, ``X`` defective, otherwise the first character of the
        owner token.  Used by the examples.
        """
        lines = []
        for r in range(self.rows):
            chars = []
            for c in range(self.cols):
                cl = self._clusters[(r, c)]
                if cl.defective:
                    chars.append("X")
                elif cl.owner is None:
                    chars.append(".")
                else:
                    chars.append(str(cl.owner)[0])
            lines.append(" ".join(chars))
        return "\n".join(lines)
