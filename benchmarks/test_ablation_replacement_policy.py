"""Ablation: what the stack's free LRU buys (§2.4).

"Because a stack shift sorts the objects in the array, a replacement,
based on an LRU algorithm, is easily implemented" — the stack structure
gives the AP exact LRU at zero extra hardware.  This bench quantifies
the benefit over FIFO and random replacement on temporal-locality
traces, and shows the one regime where LRU loses (the looping
pathology), so the design choice is presented with its trade-off.
"""

from repro.analysis.reporting import format_table
from repro.ap.cache_model import compare_policies
from repro.workloads.traces import geometric_reuse_trace, looping_trace

CAPACITY = 8


def test_replacement_policy_comparison(benchmark, emit):
    def sweep():
        rows = []
        for label, trace in [
            ("temporal p=0.9", geometric_reuse_trace(3000, 64, 0.9, seed=4)),
            ("temporal p=0.6", geometric_reuse_trace(3000, 64, 0.6, seed=4)),
            ("looping N=C+1", looping_trace(CAPACITY + 1, 100)),
        ]:
            rates = compare_policies(trace, CAPACITY, seed=7)
            rows.append((label, rates["lru"], rates["fifo"], rates["random"]))
        return rows

    rows = benchmark(sweep)
    by_label = {r[0]: r for r in rows}

    # temporal locality: LRU >= FIFO and random, with a real margin at
    # high reuse
    for label in ("temporal p=0.9", "temporal p=0.6"):
        _, lru, fifo, random_ = by_label[label]
        assert lru >= fifo
        assert lru >= random_
    assert by_label["temporal p=0.9"][1] > by_label["temporal p=0.9"][3] + 0.02
    # the honest trade-off: looping one past capacity zeroes LRU
    assert by_label["looping N=C+1"][1] == 0.0
    assert by_label["looping N=C+1"][3] > 0.0

    report = format_table(
        ["trace", "LRU", "FIFO", "random"],
        [(l, f"{a:.3f}", f"{b:.3f}", f"{c:.3f}") for l, a, b, c in rows],
        title=f"Ablation: replacement policy at capacity C={CAPACITY} "
        "(the stack gives LRU for free, §2.4)",
    )
    emit("ablation_replacement_policy", report)
