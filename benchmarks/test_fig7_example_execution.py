"""Bench: Figure 7 — four-processor configuration, wormhole routing, and
speculative pipelined execution.

The full Figure 7 flow: the program ``if (x>y) z=x+1 else z=y+2; z=buff``
partitions into four atomic blocks (7(a,b)); four processors are
wormhole-configured (7(c)); execution pipelines through them with data
delivered into inactive processors' memory blocks (7(d)).  Reported:
configuration cost per processor (measured on the cycle-level router
network) and the execution trace for both branch outcomes.
"""

from repro.analysis.reporting import format_table
from repro.core.partition import ProgramExecutor
from repro.core.vlsi_processor import VLSIProcessor
from repro.workloads.programs import figure7_program


def _configure_chip():
    chip = VLSIProcessor(8, 8, with_network=True)
    program = figure7_program()
    placement = {}
    # Figure 7(b)'s spatially local in-order placement: one block per
    # 2x2 quadrant-ish region, configured in program order
    for block in program.blocks():
        proc = f"P_{block.name}"
        chip.create_processor(proc, n_clusters=4, strategy="rectangle")
        placement[block.name] = proc
    return chip, program, placement


def test_fig7_configuration_and_execution(benchmark, emit):
    def full_flow():
        chip, program, placement = _configure_chip()
        executor = ProgramExecutor(chip, program, placement)
        then_result = executor.run({100: 5, 101: 3})
        then_trace = [t.block for t in executor.trace]
        else_result = executor.run({100: 2, 101: 9})
        else_trace = [t.block for t in executor.trace]
        return chip, placement, then_result, then_trace, else_result, else_trace

    chip, placement, then_result, then_trace, else_result, else_trace = benchmark(
        full_flow
    )

    # semantics: z = x+1 on the then path, y+2 on the else path
    assert then_result == {1: 6}
    assert else_result == {1: 11}
    # speculative isolation: the untaken branch never executes
    assert then_trace == ["cond", "then", "merge"]
    assert else_trace == ["cond", "else", "merge"]

    rows = [
        (
            name,
            chip.processor(proc).n_clusters,
            chip.processor(proc).config_cycles,
            chip.processor(proc).span(),
        )
        for name, proc in placement.items()
    ]
    report = format_table(
        ["block", "clusters", "config worm cycles", "region span"],
        rows,
        title="Figure 7: four-processor configuration (wormhole-routed) "
        "and pipelined execution",
    )
    emit("fig7_example_execution", report)


def test_fig7_wormhole_reservation_prevents_conflicts(benchmark):
    """Figure 7(c)'s reservation flags: two scaling operations never get
    the same cluster."""
    from repro.errors import AllocationConflictError
    from repro.topology.regions import rectangle_region

    def contend():
        chip = VLSIProcessor(4, 4, with_network=False)
        chip.create_processor("A", region=rectangle_region((0, 0), 2, 2))
        conflicts = 0
        try:
            chip.create_processor("B", region=rectangle_region((1, 1), 2, 2))
        except AllocationConflictError:
            conflicts += 1
        return chip, conflicts

    chip, conflicts = benchmark(contend)
    assert conflicts == 1
    # the failed worm rolled back: B's non-overlapping clusters are free
    assert chip.fabric.cluster((2, 2)).is_free


def test_fig7_pipelined_waves(benchmark):
    """7(d): the same four processors process wave after wave."""

    def waves():
        chip, program, placement = _configure_chip()
        executor = ProgramExecutor(chip, program, placement)
        return [executor.run({100: x, 101: 3})[1] for x in range(6)]

    results = benchmark(waves)
    #  x<=3 -> z=y+2=5 ; x>3 -> z=x+1
    assert results == [5, 5, 5, 5, 5, 6]
