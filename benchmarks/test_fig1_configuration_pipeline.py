"""Bench: Figure 1 — the configuration procedure on the pipeline.

Figure 1 shows the request → acknowledge → acquirement → release
sequence between the request registers, the WSRF and a target PE.  The
bench drives both the hit path (objects resident, chained in one
pipeline pass) and the miss path (library load + forced stack shift +
re-request) and reports per-element cycle costs.
"""

from repro.analysis.reporting import format_table
from repro.ap.config_stream import ConfigStream
from repro.ap.objects import LogicalObject, Operation
from repro.ap.pipeline import AdaptiveProcessor, Stage
from repro.ap.virtual_hw import ObjectLibrary


def _library():
    objs = [
        LogicalObject(0, Operation.CONST, 1.0),
        LogicalObject(1, Operation.CONST, 2.0),
        LogicalObject(2, Operation.FADD),
        LogicalObject(3, Operation.FMUL),
    ]
    return ObjectLibrary(objs, load_latency=4)


def _stream():
    return ConfigStream.from_pairs([(0, []), (1, []), (2, [0, 1]), (3, [2, 0])])


def _run_cold_and_warm():
    ap = AdaptiveProcessor(capacity=8, library=_library(), trace_stages=True)
    cold = ap.run(_stream())
    warm = ap.run(_stream())
    return ap, cold, warm


def test_fig1_configuration_procedure(benchmark, emit):
    ap, cold, warm = benchmark(_run_cold_and_warm)

    # cold pass: every first reference misses, loads, stack-shifts
    assert cold.misses == 4
    assert cold.stall_cycles > 0
    # warm pass: the datapath is cached -- pure hits, no stalls
    assert warm.misses == 0
    assert warm.stall_cycles == 0
    assert warm.hit_rate == 1.0
    # chaining happened once and persists
    assert cold.connections == 4
    assert set(ap.configured_connections()) == {(0, 2), (1, 2), (2, 3), (0, 3)}

    rows = [
        ("cold (miss path)", cold.elements, cold.misses, cold.stall_cycles,
         cold.total_cycles, f"{cold.hit_rate:.2f}"),
        ("warm (hit path)", warm.elements, warm.misses, warm.stall_cycles,
         warm.total_cycles, f"{warm.hit_rate:.2f}"),
    ]
    report = format_table(
        ["pass", "elements", "misses", "stall cyc", "total cyc", "hit rate"],
        rows,
        title="Figure 1: configuration procedure, hit vs miss path",
    )
    emit("fig1_configuration_pipeline", report)


def test_fig1_stage_sequence(benchmark):
    """The five stages occupy in order for every element."""

    def run():
        ap = AdaptiveProcessor(capacity=8, library=_library(), trace_stages=True)
        ap.run(_stream())
        return ap.events

    events = benchmark(run)
    expected = [
        Stage.POINTER_UPDATE,
        Stage.REQUEST_FETCH,
        Stage.REQUEST_EVALUATION,
        Stage.REQUEST,
    ]
    for idx in range(4):
        per_element = [e.stage for e in events if e.element_index == idx]
        assert per_element[: len(expected)] == expected
        assert per_element[-1] is Stage.ACQUIREMENT
