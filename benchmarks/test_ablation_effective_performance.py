"""Ablation: peak vs effective performance (§2's motivating gap).

"The larger scale of a many-core processor will easily result in a
larger gap between the peak and effective performances, probably
causing a delay of many cycles for the managing and scheduling of
resources."

The bench configures streaming chains of varying depth on a 64-object
AP (management cost = measured pipeline stall cycles), then streams
records through them and converts cycle counts to effective GOPS at the
2012 node's clock.  Two effects are quantified:

* **utilisation**: effective/peak tracks how much of the array the
  datapath occupies;
* **amortisation**: counting the configuration cycles, short streams
  pay a visible management tax that long streams amortise away.
"""

from repro.analysis.reporting import format_table
from repro.ap.pipeline import AdaptiveProcessor
from repro.ap.streaming import StreamingExecutor
from repro.costmodel.performance import effective_gops
from repro.costmodel.wire_delay import global_wire_delay_ns
from repro.workloads.generators import streaming_chain

CAPACITY = 64


def _measure(depth: int, n_records: int):
    app = streaming_chain(depth)
    ap = AdaptiveProcessor(
        capacity=CAPACITY,
        library=app.to_library(),
        n_channels=CAPACITY,
        wsrf_capacity=4 * CAPACITY,
    )
    config = ap.run(app.to_config_stream())
    datapath = app.to_datapath()
    executor = StreamingExecutor(datapath, capacity=CAPACITY)
    run = executor.run([{0: float(i)} for i in range(n_records)])
    # each record exercises every operator stage once
    useful_ops = n_records * depth
    return config, run, useful_ops


def test_peak_vs_effective(benchmark, emit):
    delay = global_wire_delay_ns(36.0)

    def sweep():
        rows = []
        for depth in (8, 16, 32, 48):
            config, run, ops = _measure(depth, n_records=200)
            streaming = effective_gops(
                ops, run.stats.total_cycles, delay, n_objects=CAPACITY
            )
            with_config = effective_gops(
                ops,
                run.stats.total_cycles + config.total_cycles,
                delay,
                n_objects=CAPACITY,
            )
            rows.append(
                (depth, config.total_cycles, streaming["efficiency"],
                 with_config["efficiency"])
            )
        return rows

    rows = benchmark(sweep)

    effs = [r[2] for r in rows]
    # utilisation: deeper datapaths fill more of the array
    assert all(a < b for a, b in zip(effs, effs[1:]))
    assert effs[-1] > 0.6  # 48 of 64 objects busy
    # management tax: configuration cycles always cost something
    assert all(r[3] < r[2] for r in rows)

    report = format_table(
        ["datapath depth", "config cycles", "streaming efficiency",
         "incl. config"],
        [(d, c, f"{e:.3f}", f"{w:.3f}") for d, c, e, w in rows],
        title="Ablation: peak vs effective performance on a 64-object AP "
        "(200 records, 36 nm clock)",
    )
    emit("ablation_effective_performance", report)


def test_configuration_cost_amortises(benchmark):
    """Longer streams shrink the gap between with/without-config
    efficiency — the management delay §2 worries about is a fixed cost."""
    delay = global_wire_delay_ns(36.0)

    def tax(n_records):
        config, run, ops = _measure(16, n_records)
        pure = effective_gops(ops, run.stats.total_cycles, delay, CAPACITY)
        full = effective_gops(
            ops, run.stats.total_cycles + config.total_cycles, delay, CAPACITY
        )
        # relative management tax: the fraction of achievable performance
        # lost to configuration
        return 1.0 - full["efficiency"] / pure["efficiency"]

    taxes = benchmark(lambda: {n: tax(n) for n in (10, 100, 1000)})
    assert taxes[10] > taxes[100] > taxes[1000]
    assert taxes[1000] < 0.12
    assert taxes[10] > 0.5  # short streams are dominated by management


def test_defragmentation_recovers_allocatability(benchmark, emit):
    """§5's management claim made concrete: after churn fragments the
    fabric, one self-managed defrag pass restores large allocations."""
    from repro.core.defrag import Defragmenter
    from repro.core.vlsi_processor import VLSIProcessor
    from repro.errors import RegionError

    def run():
        chip = VLSIProcessor(8, 8, with_network=False)
        for i in range(16):
            chip.create_processor(f"S{i}", n_clusters=4)
        for i in range(0, 16, 2):
            chip.destroy_processor(f"S{i}")
        defrag = Defragmenter(chip)
        frag_before = defrag.fragmentation()
        blocked = False
        try:
            chip.create_processor("BIG", n_clusters=32)
        except RegionError:
            blocked = True
        moves = defrag.compact_until_stable()
        frag_after = defrag.fragmentation()
        chip.create_processor("BIG", n_clusters=32)
        return frag_before, frag_after, len(moves), blocked

    frag_before, frag_after, n_moves, blocked = benchmark(run)
    assert blocked
    assert frag_before > 0.5
    assert frag_after == 0.0

    report = format_table(
        ["metric", "value"],
        [
            ("fragmentation before", f"{frag_before:.2f}"),
            ("fragmentation after", f"{frag_after:.2f}"),
            ("processors moved", n_moves),
            ("32-cluster allocation", "blocked -> fits"),
        ],
        title="Ablation: self-managed defragmentation (section 5)",
    )
    emit("ablation_defragmentation", report)
