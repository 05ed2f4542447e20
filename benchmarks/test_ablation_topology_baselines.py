"""Ablation: S-topology vs the section-5 comparators (ring, mesh).

Quantifies the qualitative §5 claims:

* ring latency "is increased by the number of cores" — linear diameter;
* mesh diameter grows as sqrt(N) with "abundant bisection bandwidth",
  but needs host-managed placement;
* a ring embeds directly into the S-topology (Figure 5), so ring-based
  designs carry over without giving up the grid's scaling.
"""

from repro.analysis.reporting import format_table
from repro.topology.mesh import MeshTopology
from repro.topology.ring_baseline import RingTopology
from repro.topology.rings import ring_region
from repro.topology.s_topology import STopology

SIZES = [16, 64, 256]


def test_topology_scaling(benchmark, emit):
    def sweep():
        rows = []
        for n in SIZES:
            side = int(n ** 0.5)
            ring = RingTopology(n)
            mesh = MeshTopology(side, side)
            rows.append(
                (
                    n,
                    ring.diameter(),
                    mesh.diameter(),
                    ring.bisection_width(),
                    mesh.bisection_width(),
                    mesh.host_placement_cost(n // 4),
                )
            )
        return rows

    rows = benchmark(sweep)

    # ring diameter linear; mesh ~ 2*sqrt(N)
    ring_diams = [r[1] for r in rows]
    mesh_diams = [r[2] for r in rows]
    assert ring_diams[2] == 4 * ring_diams[1] == 16 * ring_diams[0]
    assert mesh_diams[2] < ring_diams[2] / 4
    # mesh bisection grows, ring's stays 2
    assert all(r[3] == 2 for r in rows)
    assert rows[2][4] > rows[0][4]

    report = format_table(
        [
            "cores", "ring diam", "mesh diam",
            "ring bisect", "mesh bisect", "mesh host cost",
        ],
        rows,
        title="Ablation: ring vs mesh scaling (section 5 comparators)",
    )
    emit("ablation_topology_baselines", report)


def test_ring_embeds_in_s_topology(benchmark):
    """Section 5: 'the ring topology can be implemented on the
    S-topology' — and placement there is fabric-managed (stack-top),
    not host-managed."""

    def embed():
        fabric = STopology(16, 16)
        ring = ring_region((0, 0), 16, 16)  # 60-cluster perimeter ring
        ring.chain_on(fabric)
        return fabric, ring

    fabric, ring = benchmark(embed)
    assert fabric.chained_component((0, 0)) == set(ring.path)
    # the embedded ring has the same linear hop structure as a native one
    native = RingTopology(len(ring))
    assert native.diameter() == len(ring) // 2
