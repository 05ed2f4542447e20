"""Wave-pipelined execution across processors (paper Figure 7(d)).

"This can be a pipelined execution through multiple processors."  The
sequential :class:`repro.core.partition.ProgramExecutor` runs one wave
at a time; this module overlaps waves: while the merge processor
finishes wave *k*, the condition processor already evaluates wave
*k+2*.  Each block occupies its processor for one time step per wave,
so for a linear chain of ``d`` blocks and ``n`` waves the makespan is
``d + n - 1`` steps instead of the sequential ``d·n`` — the same
fill-then-stream shape as the datapath-level pipeline of §2.5.

Control flow is handled exactly as in Figure 7: the condition block
forwards each wave to *one* branch, so different waves may travel
different paths; the merge point sees them in wave order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.core.vlsi_processor import VLSIProcessor
from repro.workloads.programs import BasicBlock, PartitionedProgram

__all__ = ["WaveRecord", "PipelinedStats", "PipelinedExecutor"]


@dataclass(frozen=True)
class WaveRecord:
    """One wave's journey: which blocks it visited at which step."""

    wave: int
    path: Tuple[Tuple[int, str], ...]  # ((step, block), ...)
    result: Dict[int, Any]


@dataclass(frozen=True)
class PipelinedStats:
    """Timing of one pipelined run."""

    waves: int
    steps: int
    block_executions: int

    @property
    def throughput(self) -> float:
        """Waves completed per step (→ 1.0 for long streams)."""
        if self.steps == 0:
            return 0.0
        return self.waves / self.steps


class PipelinedExecutor:
    """Runs many input waves through a partitioned program, overlapped.

    The scheduling model: at each time step, every processor executes at
    most one wave's block; a wave advances one block per step.  This is
    the steady-state behaviour Figure 7(d) sketches.  (Values move
    between steps as direct hand-offs; the mailbox-level protocol is
    exercised by :class:`repro.core.partition.ProgramExecutor`.)
    """

    def __init__(
        self,
        vlsi: VLSIProcessor,
        program: PartitionedProgram,
        placement: Dict[str, str],
    ) -> None:
        program.validate()
        for block in program.blocks():
            if block.name not in placement:
                raise ConfigurationError(f"block {block.name!r} unplaced")
            vlsi.processor(placement[block.name])
        self.vlsi = vlsi
        self.program = program
        self.placement = placement
        self.records: List[WaveRecord] = []

    def run(
        self, waves: List[Dict[int, Any]], max_steps: int = 10_000
    ) -> PipelinedStats:
        """Push every wave through the program, overlapping their block
        executions.  Results land in :attr:`records` in wave order.

        Raises
        ------
        SimulationError
            If the pipeline fails to drain within ``max_steps``.
        """
        entry = self.program.block(self.program.entry)
        # in-flight: wave index -> (block, pending inputs, path so far)
        in_flight: Dict[int, Tuple[BasicBlock, Dict[int, Any], List]] = {}
        next_wave = 0
        done: Dict[int, WaveRecord] = {}
        executions = 0
        step = 0
        while len(done) < len(waves):
            if step >= max_steps:
                raise SimulationError(
                    f"pipeline failed to drain within {max_steps} steps"
                )
            busy: set = set()
            # advance in-flight waves, oldest first (they have priority
            # at shared processors)
            for wave in sorted(in_flight):
                block, inputs, path = in_flight[wave]
                proc = self.placement[block.name]
                if proc in busy:
                    continue  # structural hazard: processor taken this step
                busy.add(proc)
                self.vlsi.activate(proc)
                outputs = block.run(inputs)
                self.vlsi.deactivate(proc)
                executions += 1
                path.append((step, block.name))
                nxt = self._successor(block, outputs)
                if nxt is None:
                    done[wave] = WaveRecord(wave, tuple(path), outputs)
                    del in_flight[wave]
                else:
                    succ_block, succ_inputs = nxt
                    in_flight[wave] = (succ_block, succ_inputs, path)
            # admit one new wave per step if the entry processor is free
            entry_proc = self.placement[entry.name]
            if next_wave < len(waves) and entry_proc not in busy and not any(
                blk.name == entry.name for blk, _, _ in in_flight.values()
            ):
                in_flight[next_wave] = (entry, dict(waves[next_wave]), [])
                next_wave += 1
            step += 1
        self.records = [done[w] for w in sorted(done)]
        return PipelinedStats(len(waves), step, executions)

    def _successor(
        self, block: BasicBlock, outputs: Dict[int, Any]
    ) -> Optional[Tuple[BasicBlock, Dict[int, Any]]]:
        """Pick the taken edge and build the successor's inputs."""
        taken: Optional[str] = None
        for condition_key, succ in block.successors:
            if condition_key is None or bool(outputs.get(condition_key)):
                taken = succ
                break
        if taken is None:
            return None
        succ_block = self.program.block(taken)
        payload = {
            k: v for k, v in outputs.items() if k in succ_block.input_ids
        }
        if not payload:
            condition_keys = {
                ck for ck, _ in block.successors if ck is not None
            }
            values = [v for k, v in outputs.items() if k not in condition_keys]
            if len(succ_block.input_ids) == 1 and values:
                payload = {succ_block.input_ids[0]: values[0]}
        return succ_block, payload

    def results(self) -> List[Dict[int, Any]]:
        """Final outputs, in wave order."""
        return [r.result for r in self.records]
