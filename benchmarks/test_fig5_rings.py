"""Bench: Figure 5 — rings configured on the S-topology.

Figure 5 shows several ring-shaped processors coexisting on one fabric.
The bench configures disjoint rings of different sizes, verifies each is
a closed chained component, and compares ring latency on the S-topology
embedding against the dedicated ring baseline of section 5.
"""

from repro.analysis.reporting import format_table
from repro.topology.ring_baseline import RingTopology
from repro.topology.rings import ring_region
from repro.topology.s_topology import STopology


def _configure_rings():
    fabric = STopology(8, 8)
    rings = [
        ring_region((0, 0), 2, 2),
        ring_region((0, 4), 3, 4),
        ring_region((4, 0), 4, 4),
    ]
    for ring in rings:
        ring.chain_on(fabric)
    return fabric, rings


def test_fig5_rings_coexist(benchmark, emit):
    fabric, rings = benchmark(_configure_rings)

    rows = []
    for i, ring in enumerate(rings):
        component = fabric.chained_component(ring.path[0])
        assert component == set(ring.path)  # closed and isolated
        # the closing switch is chained
        assert fabric.chain_switch(ring.path[-1], ring.path[0]).is_chained
        baseline = RingTopology(len(ring))
        rows.append(
            (
                f"ring {i}",
                len(ring),
                baseline.diameter(),
                f"{baseline.average_hops():.2f}",
            )
        )

    # all rings disjoint
    all_clusters = [c for ring in rings for c in ring.path]
    assert len(set(all_clusters)) == len(all_clusters)

    report = format_table(
        ["ring", "clusters", "diameter [hops]", "mean hops"],
        rows,
        title="Figure 5: disjoint rings on one 8x8 S-topology",
    )
    emit("fig5_rings", report)


def test_fig5_ring_reconfigures_to_line(benchmark):
    """A ring is just a region: unchain it and re-form a line in place —
    the flexibility the section 5 comparison credits the S-topology with."""

    def reshape():
        fabric = STopology(8, 8)
        ring = ring_region((2, 2), 3, 3)
        ring.chain_on(fabric)
        ring.unchain_on(fabric)
        from repro.topology.regions import rectangle_region

        line = rectangle_region((2, 2), 1, 5)
        line.chain_on(fabric)
        return fabric, line

    fabric, line = benchmark(reshape)
    assert fabric.chained_component((2, 2)) == set(line.path)
