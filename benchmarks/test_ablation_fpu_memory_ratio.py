"""Ablation: the FPU/memory resource mix (§4.1).

"We can coordinate the number of FPUs and memories, and more GOPS is
available if we optimize for more FPUs and less memory blocks."

Sweeps the AP composition at the 2012 node and reports AP count, total
compute objects and peak GOPS per mix, confirming the paper's direction:
trading memory blocks for physical objects raises peak GOPS (at the cost
of on-chip state).
"""

from repro.analysis.reporting import format_table
from repro.costmodel.areas import APComposition
from repro.costmodel.chip_budget import ChipBudget
from repro.costmodel.performance import peak_gops
from repro.costmodel.technology import node_for_year
from repro.costmodel.wire_delay import global_wire_delay_ns

MIXES = [
    ("paper 16:16", APComposition(16, 16)),
    ("fpu-heavy 24:8", APComposition(24, 8)),
    ("fpu-max 32:4", APComposition(32, 4)),
    ("memory-heavy 8:24", APComposition(8, 24)),
]


def test_fpu_memory_mix(benchmark, emit):
    node = node_for_year(2012)
    delay = global_wire_delay_ns(node.feature_nm)

    def sweep():
        out = []
        for name, comp in MIXES:
            budget = ChipBudget(composition=comp)
            n_aps = budget.aps(node)
            out.append(
                (
                    name,
                    n_aps,
                    n_aps * comp.n_physical_objects,
                    peak_gops(n_aps, delay, comp),
                )
            )
        return out

    rows = benchmark(sweep)
    by_name = {r[0]: r for r in rows}

    # the paper's claim: more FPUs / less memory -> more GOPS
    assert by_name["fpu-heavy 24:8"][3] > by_name["paper 16:16"][3]
    assert by_name["fpu-max 32:4"][3] > by_name["fpu-heavy 24:8"][3]
    # and the converse
    assert by_name["memory-heavy 8:24"][3] < by_name["paper 16:16"][3]

    report = format_table(
        ["mix (PO:MB)", "#APs", "total FPUs", "peak GOPS"],
        [(n, a, f, f"{g:.0f}") for n, a, f, g in rows],
        title="Ablation: FPU/memory ratio at the 2012 node "
        f"(wire delay {delay:.2f} ns)",
    )
    emit("ablation_fpu_memory_ratio", report)
