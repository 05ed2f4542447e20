"""Extension: the paper's model run past its 2015 horizon.

The introduction's premise — "Thousands of compute and memory resources
will be implementable on-chip in the near future" — is checked by
driving the paper's own Table 4 model through the nodes that actually
shipped after publication (16/10/7/5 nm).  At 5 nm the 1 cm² die holds
on the order of a thousand minimum APs (tens of thousands of objects),
vindicating the premise.  The wire delay stays pinned near 1.3–1.6 ns
(the calibrated RC model: wires shrink with λ but resistance climbs)
while the resource count grows 25×, so clock-limited global
communication buys relatively less and less — the scaling argument for
the paper's locality-first architecture.
"""

from repro.analysis.reporting import format_table
from repro.costmodel.performance import table4
from repro.costmodel.technology import extended_roadmap


def test_extended_roadmap(benchmark, emit):
    rows = benchmark(table4, nodes=extended_roadmap())

    assert len(rows) == 10  # 6 paper nodes + 4 extension nodes
    by_year = {r.year: r for r in rows}
    # the premise: thousands-of-resources territory
    assert by_year[2023].available_aps > 500
    assert by_year[2023].available_aps * 32 > 10_000  # objects on chip
    # monotone growth continues
    counts = [r.available_aps for r in rows]
    assert all(a <= b for a, b in zip(counts, counts[1:]))

    table_rows = [
        (
            r.year,
            f"{r.feature_nm:.0f}",
            r.available_aps,
            r.available_aps * 32,
            f"{r.wire_delay_ns:.2f}",
            f"{r.peak_gops:.0f}",
            "paper" if r.year <= 2015 else "extension",
        )
        for r in rows
    ]
    report = format_table(
        ["Year", "nm", "#APs", "objects", "delay[ns]", "GOPS", ""],
        table_rows,
        title="Extension: Table 4's model through the post-2015 roadmap",
    )
    emit("extension_roadmap", report)


def test_locality_decomposition_of_figure3_workloads(benchmark, emit):
    """§2.7's decomposition measured on the Figure 3 workloads: channel
    demand is driven by spatial locality; order contributes a small
    packing spread on top."""
    from repro.analysis.channel_usage import (
        locality_decomposition,
        order_sensitivity,
    )
    from repro.csd.locality import LocalityWorkload

    def sweep():
        rows = []
        for knob in (1.0, 0.5, 0.0):
            reqs = LocalityWorkload(64, knob, seed=61).requests()
            d = locality_decomposition(reqs, 64)
            lo, hi = order_sensitivity(reqs, 64, n_shuffles=10, seed=3)
            rows.append(
                (knob, f"{d['spatial_locality']:.3f}",
                 f"{d['temporal_locality']:.3f}", lo, hi)
            )
        return rows

    rows = benchmark(sweep)
    spatial = [float(r[1]) for r in rows]
    assert spatial[0] > spatial[1] > spatial[2]
    for _, _, _, lo, hi in rows:
        assert lo <= hi <= 64

    report = format_table(
        ["knob", "spatial locality", "temporal locality",
         "channels (best order)", "(worst order)"],
        rows,
        title="Extension: §2.7 channel-demand decomposition (N=64)",
    )
    emit("extension_locality_decomposition", report)
