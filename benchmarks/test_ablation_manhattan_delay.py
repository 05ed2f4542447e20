"""Ablation: chaining delay in Manhattan distance (abstract, §4).

"We analyzed the cost in terms of the available number of clusters
(adaptive processors with a minimum scale) and delay in
Manhattan-distance of the chip" — this bench places datapaths of
varying code locality onto a fused region and reports the wire-length
distribution of their chains and the implied critical RC delay, using
the same 36 nm wire parameters as Table 4.

The claim quantified: locality in the object code is locality in metal
— local code keeps every chain within one or two clusters, while
scattered code stretches chains across the region and its critical wire
delay grows quadratically (RC).
"""

from repro.analysis.placement import analyze_placement
from repro.analysis.reporting import format_table
from repro.costmodel.wire_delay import ITRS2007_GLOBAL_WIRE, wire_length_um
from repro.topology.regions import rectangle_region
from repro.workloads.generators import random_dag

#: One cluster's side at 36 nm: 16 PO + 16 MB is ~32 objects of the
#: Table-1/2 sizes; use the physical-object side × 6 as a round pitch.
CLUSTER_PITCH_UM = 6 * wire_length_um(36.0)


def test_manhattan_delay_vs_locality(benchmark, emit):
    region = rectangle_region((0, 0), 4, 4)
    params = ITRS2007_GLOBAL_WIRE[36.0]

    def sweep():
        rows = []
        for locality in (1.0, 0.5, 0.0):
            stream = random_dag(
                60, locality=locality, seed=47
            ).to_config_stream()
            report = analyze_placement(stream, region, objects_per_cluster=4)
            rows.append(
                (
                    locality,
                    f"{report.mean_distance:.2f}",
                    report.max_distance,
                    f"{report.local_fraction:.2f}",
                    f"{report.critical_delay_ns(params, CLUSTER_PITCH_UM):.2f}",
                )
            )
        return rows

    rows = benchmark(sweep)

    mean_dists = [float(r[1]) for r in rows]
    max_dists = [r[2] for r in rows]
    assert mean_dists[0] < mean_dists[-1]  # local code -> short wires
    assert max_dists[0] <= max_dists[-1]
    # local code keeps chains within a couple of clusters
    assert max_dists[0] <= 2

    report = format_table(
        ["code locality", "mean dist [clusters]", "max dist",
         "intra-cluster frac", "critical delay [ns]"],
        rows,
        title="Ablation: chaining delay in Manhattan distance "
        f"(4x4 region, 36 nm, pitch {CLUSTER_PITCH_UM:.0f} um)",
    )
    emit("ablation_manhattan_delay", report)


def test_bigger_regions_longer_worst_case(benchmark):
    """Scaling a processor up grows its worst-case chaining distance —
    the §2.6.2 'worst case delay' that motivates equalising PE delay."""

    def measure(side):
        region = rectangle_region((0, 0), side, side)
        stream = random_dag(
            4 * side * side, locality=0.0, seed=51
        ).to_config_stream()
        return analyze_placement(
            stream, region, objects_per_cluster=4
        ).max_distance

    dists = benchmark(lambda: {s: measure(s) for s in (2, 4, 6)})
    assert dists[2] < dists[4] < dists[6]
