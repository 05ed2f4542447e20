"""Ablation: sequential vs wave-pipelined execution (Figure 7(d)).

"This can be a pipelined execution through multiple processors" — the
bench runs the same wave stream through the Figure 7 program twice:
sequentially (one wave at a time, the conservative reading) and
pipelined (waves overlapped across the four processors), and reports
the speedup and its convergence toward the block-chain depth.
"""

from repro.analysis.reporting import format_table
from repro.core.partition import ProgramExecutor
from repro.core.pipelined import PipelinedExecutor
from repro.core.vlsi_processor import VLSIProcessor
from repro.workloads.programs import figure7_program


def _deploy():
    chip = VLSIProcessor(8, 8, with_network=False)
    program = figure7_program()
    placement = {}
    for block in program.blocks():
        chip.create_processor(f"P_{block.name}", n_clusters=1)
        placement[block.name] = f"P_{block.name}"
    return chip, program, placement


def test_pipelined_vs_sequential(benchmark, emit):
    def run():
        rows = []
        for n_waves in (4, 16, 64):
            chip, program, placement = _deploy()
            waves = [{100: x, 101: 3} for x in range(n_waves)]
            sequential = ProgramExecutor(chip, program, placement)
            seq_steps = 0
            seq_results = []
            for wave in waves:
                seq_results.append(sequential.run(wave))
                seq_steps += len(sequential.trace)
            pipe = PipelinedExecutor(chip, program, placement)
            stats = pipe.run(waves)
            assert pipe.results() == seq_results  # identical semantics
            rows.append((n_waves, seq_steps, stats.steps,
                         seq_steps / stats.steps))
        return rows

    rows = benchmark(run)

    speedups = [r[3] for r in rows]
    # overlap always wins, and the win grows with stream length toward
    # the 3-block chain depth (cond -> branch -> merge)
    assert all(s > 1.0 for s in speedups)
    assert speedups[0] < speedups[-1]
    assert speedups[-1] > 1.4

    report = format_table(
        ["waves", "sequential steps", "pipelined steps", "speedup"],
        [(n, s, p, f"{x:.2f}x") for n, s, p, x in rows],
        title="Ablation: sequential vs wave-pipelined Figure 7 execution",
    )
    emit("ablation_pipelined_waves", report)
