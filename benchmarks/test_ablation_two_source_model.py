"""Ablation: one-source vs two-source CSD model.

§2.6.2: "Figure 3 shows the evaluation results of a one-source model
(not a two-source model)".  This bench runs the set-aside two-source
model (each sink chains two operands) and quantifies how much more
channel provisioning it needs — and that the locality lever works the
same way.
"""

from repro.analysis.reporting import format_table
from repro.csd.simulator import CSDSimulator

SIZES = (32, 64, 128)


def test_two_source_channel_demand(benchmark, emit):
    def sweep():
        rows = []
        for n in SIZES:
            sim = CSDSimulator(n, seed=23)
            for loc in (1.0, 0.0):
                one = sim.run_trial(loc, two_source=False)
                two = sim.run_trial(loc, two_source=True)
                rows.append(
                    (n, loc, one.used_channels, two.used_channels,
                     two.used_channels / max(one.used_channels, 1))
                )
        return rows

    rows = benchmark(sweep)

    for n, loc, one, two, ratio in rows:
        assert two >= one
        if loc == 0.0:
            # random datapaths: demand grows substantially but stays
            # well under the naive 2N bound
            assert 1.2 < ratio < 2.6
            assert two < 1.2 * n
    # the locality lever still works in the two-source model
    by_key = {(n, loc): two for n, loc, _, two, _ in rows}
    for n in SIZES:
        assert by_key[(n, 1.0)] < by_key[(n, 0.0)] / 2

    report = format_table(
        ["N", "locality", "1-src channels", "2-src channels", "ratio"],
        [(n, l, o, t, f"{r:.2f}") for n, l, o, t, r in rows],
        title="Ablation: one-source vs two-source CSD model (§2.6.2)",
    )
    emit("ablation_two_source_model", report)
