"""Bench: Figure 3 — Locality versus Number of Used Channels.

The paper's functional CSD simulation: one-source model, random sink
requests, locality-controlled source offsets, N_object in
{16, 32, 64, 128, 256}.  Claims to reproduce:

* "the figure shows that Nobject channels were not used",
* "Nobject/2 channels are sufficient for the random datapath",
* higher locality uses fewer channels (the left of each curve).
"""

from repro.analysis.channel_usage import summarize_series
from repro.analysis.reporting import format_series
from repro.csd.simulator import FIGURE3_NOBJECTS, figure3_series

LOCALITIES = [1.0, 0.8, 0.6, 0.4, 0.2, 0.0]


def test_fig3_series(benchmark, emit):
    series = benchmark(
        figure3_series, localities=LOCALITIES, n_trials=5, seed=42
    )
    assert set(series) == set(FIGURE3_NOBJECTS)

    for n, curve in series.items():
        summary = summarize_series(curve)
        # claim 1: never the full N channels
        assert summary.never_used_full_n, f"N={n} used all channels"
        # claim 2: N/2 sufficient (small fuzz as in the paper's own plot)
        assert summary.half_n_sufficient, (
            f"N={n} needed {summary.max_used} > N/2 channels"
        )
        # claim 3: locality helps — the most local point is far below
        # the fully random one
        assert curve[0].used_channels < curve[-1].used_channels / 2

    printable = {
        f"Nobject={n}": [
            (round(p.locality_knob, 2), p.used_channels) for p in curve
        ]
        for n, curve in series.items()
    }
    report = format_series(
        printable,
        x_label="locality",
        y_label="used_channels",
        title="Figure 3: Locality versus Number of Used Channels "
        "(mean of 5 trials; locality 1.0 = most local)",
    )
    emit("fig3_locality_channels", report)


def test_fig3_curves_stack_by_array_size(benchmark):
    """Bigger arrays sit higher at the random end — the visual stacking
    of the Figure 3 curves."""
    series = benchmark(
        figure3_series, localities=[0.0], n_trials=5, seed=7,
        n_objects_list=(16, 64, 256),
    )
    at_random = [series[n][0].used_channels for n in (16, 64, 256)]
    assert at_random[0] < at_random[1] < at_random[2]
