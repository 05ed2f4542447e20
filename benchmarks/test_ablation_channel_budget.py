"""Ablation: channel budget of the dynamic CSD network.

DESIGN.md question: what does restricting a dynamic CSD to N/2 channels
(the Figure 3 recommendation) cost vs N channels, and how badly does a
too-small budget (N/4) block chaining?  Also contrasts the unsegmented
static baseline, which burns one channel per communication.
"""

from repro.analysis.reporting import format_table
from repro.errors import ChannelAllocationError
from repro.csd.dynamic_csd import DynamicCSDNetwork
from repro.csd.locality import LocalityWorkload
from repro.csd.static_csd import StaticCSDNetwork

N = 64
TRIALS = 5


def _blocked_fraction(n_channels, locality, static=False, seed=11):
    blocked = total = 0
    for t in range(TRIALS):
        workload = LocalityWorkload(N, locality, seed=seed + t)
        net = (
            StaticCSDNetwork(N, n_channels=n_channels)
            if static
            else DynamicCSDNetwork(N, n_channels=n_channels)
        )
        for req in workload.requests():
            total += 1
            try:
                net.connect(req.source, req.sink)
            except ChannelAllocationError:
                blocked += 1
    return blocked / total


def test_channel_budget_sweep(benchmark, emit):
    def sweep():
        rows = []
        for budget_name, n_ch in [("N", N), ("N/2", N // 2), ("N/4", N // 4)]:
            for locality in (1.0, 0.0):
                rows.append(
                    (
                        "dynamic",
                        budget_name,
                        locality,
                        _blocked_fraction(n_ch, locality),
                    )
                )
        rows.append(("static", "N/2", 0.0, _blocked_fraction(N // 2, 0.0, static=True)))
        return rows

    rows = benchmark(sweep)
    by_key = {(r[0], r[1], r[2]): r[3] for r in rows}

    # full provisioning never blocks
    assert by_key[("dynamic", "N", 0.0)] == 0.0
    # N/2 on random datapaths blocks rarely (the Figure 3 recommendation)
    assert by_key[("dynamic", "N/2", 0.0)] < 0.10
    # N/2 on local datapaths is effectively free
    assert by_key[("dynamic", "N/2", 1.0)] < 0.02
    # N/4 visibly hurts random datapaths
    assert by_key[("dynamic", "N/4", 0.0)] > by_key[("dynamic", "N/2", 0.0)]
    # the static baseline at N/2 blocks roughly half of a full datapath
    assert by_key[("static", "N/2", 0.0)] > 0.3

    report = format_table(
        ["network", "channels", "locality", "blocked fraction"],
        [(a, b, c, f"{d:.3f}") for a, b, c, d in rows],
        title=f"Ablation: channel budget vs blocking (N={N}, "
        f"{TRIALS} trials/point)",
    )
    emit("ablation_channel_budget", report)
