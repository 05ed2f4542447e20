"""Ablation: the object cache / CACHE model (§2.4-2.5).

"To make a hit always occur, the stack distance has to be less than or
equal to C, where C is the capacity of the cache, namely the array size
for the adaptive processor."

This bench measures warm hit rate versus array capacity for three trace
shapes (temporal-locality, looping, scan) via the one-pass Mattson
analysis, then cross-checks the analytical prediction against the
*executed* pipeline on a real configuration stream — the model and the
machine must agree on what misses.
"""

from repro.analysis.reporting import format_table
from repro.analysis.stack_distance import profile_trace
from repro.ap.pipeline import AdaptiveProcessor
from repro.workloads.generators import random_dag
from repro.workloads.traces import geometric_reuse_trace, looping_trace, scan_trace

CAPACITIES = (4, 8, 16, 32, 64)


def test_hit_rate_vs_capacity(benchmark, emit):
    def profile_all():
        return {
            "temporal (p=0.8)": profile_trace(
                geometric_reuse_trace(2000, 64, p_reuse=0.8, seed=17),
                capacities=CAPACITIES,
            ),
            "looping N=16": profile_trace(
                looping_trace(16, 50), capacities=CAPACITIES
            ),
            "scan": profile_trace(scan_trace(500), capacities=CAPACITIES),
        }

    profiles = benchmark(profile_all)

    loop = profiles["looping N=16"].hit_rates
    assert loop[8] == 0.0  # capacity below the loop: LRU pathology
    assert loop[16] > 0.9  # capacity at the loop: everything warm hits
    assert profiles["scan"].hit_rates[64] == 0.0
    temporal = profiles["temporal (p=0.8)"].hit_rates
    assert all(
        temporal[a] <= temporal[b]
        for a, b in zip(CAPACITIES, CAPACITIES[1:])
    )

    rows = [
        (name, *(f"{p.hit_rates[c]:.2f}" for c in CAPACITIES))
        for name, p in profiles.items()
    ]
    report = format_table(
        ["trace", *(f"C={c}" for c in CAPACITIES)],
        rows,
        title="Ablation: warm hit rate vs array capacity "
        "(Mattson one-pass, §2.4)",
    )
    emit("ablation_object_cache", report)


def test_model_agrees_with_executed_pipeline(benchmark):
    """The Mattson prediction and the running pipeline must count the
    same cold misses on a real configuration stream."""

    def run():
        app = random_dag(40, locality=0.6, seed=29)
        stream = app.to_config_stream()
        ap = AdaptiveProcessor(capacity=64, library=app.to_library())
        stats = ap.run(stream)
        profile = profile_trace(stream.reference_trace(), capacities=(64,))
        return stats, profile

    stats, profile = benchmark(run)
    # capacity 64 > working set: the only pipeline misses are cold ones
    assert stats.misses == profile.cold_misses
    # the pipeline deduplicates repeated IDs within one element (a binary
    # op with equal operands), so compare on its own request count
    assert stats.hits == stats.object_requests - profile.cold_misses
