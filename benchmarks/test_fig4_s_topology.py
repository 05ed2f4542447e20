"""Bench: Figure 4 — the S-topology, its cluster, and the folded layout.

Figure 4(a) shows an 8×8 S-topology of replicated clusters, (b) the
cluster pattern, (c) the linear network folded onto the plane.  The
bench builds the fabric, verifies the three section-3.1 topology
properties (fractal structure, one replicated pattern, regular switch
points), and measures fold quality (every consecutive stack position
grid-adjacent) and build cost.
"""

from repro.analysis.reporting import format_table
from repro.topology.folding import fold_path_is_adjacent
from repro.topology.metrics import diameter
from repro.topology.s_topology import STopology


def test_fig4_fabric_properties(benchmark, emit):
    fabric = benchmark(STopology, 8, 8)

    # property 1: hierarchical/fractal — sub-grids are isomorphic
    assert fabric.is_subgrid_isomorphic(2, 2)
    assert fabric.is_subgrid_isomorphic(4, 4)
    # property 2: a single replicated cluster pattern
    resources = {("c", c.resources.compute_objects, c.resources.memory_objects)
                 for c in fabric.clusters()}
    assert len(resources) == 1
    # property 3: regular switch points — one chain switch per grid edge
    chain, shift = fabric.switch_count()
    assert chain == 2 * 8 * 7
    assert shift == 2 * chain

    # Figure 4(c): the fold keeps consecutive stack positions adjacent
    order = fabric.linear_order()
    assert fold_path_is_adjacent(order)
    assert len(order) == 64

    rows = [
        ("clusters", len(fabric)),
        ("chain switches", chain),
        ("shift switches", shift),
        ("fold length (stack positions)", len(order)),
        ("fold adjacency violations", 0),
        ("fabric diameter (Manhattan)", diameter(c.coord for c in fabric.clusters())),
        ("objects per cluster", fabric.resources.total_objects),
    ]
    report = format_table(
        ["metric", "value"],
        rows,
        title="Figure 4: 8x8 S-topology build + fold validation",
    )
    emit("fig4_s_topology", report)


def test_fig4_fold_scales(benchmark):
    """Folding stays valid (and cheap) as the fabric grows."""

    def build_and_check(n):
        fabric = STopology(n, n)
        assert fold_path_is_adjacent(fabric.linear_order())
        return fabric

    fabric = benchmark(build_and_check, 16)
    assert len(fabric) == 256
