"""Executing partitioned programs across processors (paper Figure 7).

The Figure 7 flow: four basic blocks map onto four processors; the
condition processor activates and sends its operand to the taken branch
(writing into that processor's memory blocks while it is inactive), the
branch computes and forwards to the merge processor, which buffers the
final ``z``.  "This can be a pipelined execution through multiple
processors", and by isolating control flow into separate processors, a
mispredicted branch never flushes anyone else's datapath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.core.vlsi_processor import VLSIProcessor
from repro.workloads.programs import BasicBlock, PartitionedProgram

__all__ = ["BlockExecution", "ProgramExecutor", "deploy_program"]


@dataclass(frozen=True)
class BlockExecution:
    """Trace record of one block's run on one processor."""

    step: int
    block: str
    processor: str
    inputs: Dict[int, Any]
    outputs: Dict[int, Any]


class ProgramExecutor:
    """Runs a :class:`PartitionedProgram` on a :class:`VLSIProcessor`.

    Parameters
    ----------
    vlsi:
        The chip.
    program:
        The partitioned program (entry + blocks + control edges).
    placement:
        ``{block_name: processor_name}``.  Every named processor must
        already exist (create them with clusters sized to each block).
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
            vlsi.processor(placement[block.name])  # must exist
        self.vlsi = vlsi
        self.program = program
        self.placement = placement
        self.trace: List[BlockExecution] = []

    def run(self, inputs: Dict[int, Any], max_steps: int = 100) -> Dict[int, Any]:
        """Execute from the entry block; returns the final block's outputs.

        ``inputs`` are delivered into the entry processor's mailbox first
        (the supervising processor plays Figure 7's "preceding
        processor" role).

        Raises
        ------
        SimulationError
            If the control flow fails to terminate within ``max_steps``.
        """
        self.trace = []
        entry = self.program.block(self.program.entry)
        entry_proc = self.placement[entry.name]
        # deliver program inputs directly (the supervisor writes them)
        for key, value in inputs.items():
            self.vlsi.processor(entry_proc).mailbox.deliver(
                "supervisor", key, value
            )

        current: Optional[BasicBlock] = entry
        outputs: Dict[int, Any] = {}
        step = 0
        while current is not None:
            if step >= max_steps:
                raise SimulationError(
                    f"program exceeded {max_steps} block executions"
                )
            proc_name = self.placement[current.name]
            instance = self.vlsi.processor(proc_name)
            block_inputs = {
                key: instance.mailbox.read(key) for key in current.input_ids
            }
            # activation: protections set, the block runs, then deactivates
            self.vlsi.activate(proc_name)
            outputs = current.run(block_inputs)
            self.vlsi.deactivate(proc_name)
            self.trace.append(
                BlockExecution(step, current.name, proc_name, block_inputs, outputs)
            )
            current = self._forward(current, proc_name, outputs)
            step += 1
        return outputs

    def _forward(
        self, block: BasicBlock, proc_name: str, outputs: Dict[int, Any]
    ) -> Optional[BasicBlock]:
        """Pick the taken successor and deliver its inputs (§3.4 writes)."""
        taken: Optional[str] = None
        for condition_key, succ in block.successors:
            if condition_key is None or bool(outputs.get(condition_key)):
                taken = succ
                break
        if taken is None:
            return None
        succ_block = self.program.block(taken)
        succ_proc = self.placement[taken]
        self._deliver(block, proc_name, succ_block, succ_proc, outputs)
        return succ_block

    def _deliver(
        self,
        block: BasicBlock,
        proc_name: str,
        succ_block: BasicBlock,
        succ_proc: str,
        outputs: Dict[int, Any],
    ) -> None:
        """Write the values the successor needs into its memory blocks.

        Keys the successor expects that the current block produced are
        forwarded under the successor's input IDs; matching is by ID
        (shared namespace), falling back to positional order when the
        arities line up (single-input blocks keep their historical
        first-value fallback).  A successor whose inputs can be matched
        neither by ID nor positionally would silently read stale mailbox
        values — that is a wiring bug in the program, so it raises
        :class:`SimulationError` instead.
        """
        forwarded = dict(outputs)
        # drop pure condition outputs the successor does not consume
        payload = {
            k: v for k, v in forwarded.items() if k in succ_block.input_ids
        }
        if not payload and succ_block.input_ids:
            # positional fallback: send the non-condition outputs in order
            values = [
                v
                for k, v in forwarded.items()
                if all(k != ck for ck, _ in block.successors if ck is not None)
            ]
            if len(succ_block.input_ids) == 1 and len(values) >= 1:
                payload = {succ_block.input_ids[0]: values[0]}
            elif values and len(values) == len(succ_block.input_ids):
                payload = dict(zip(succ_block.input_ids, values))
            elif values:
                raise SimulationError(
                    f"block {block.name!r} forwards {len(values)} values "
                    f"but successor {succ_block.name!r} expects "
                    f"{len(succ_block.input_ids)} inputs "
                    f"{list(succ_block.input_ids)!r} with no matching IDs; "
                    "the successor would read stale mailbox state"
                )
        for key, value in payload.items():
            self.vlsi.send(proc_name, succ_proc, key, value)


def deploy_program(
    vlsi: VLSIProcessor,
    program: PartitionedProgram,
    name_prefix: str = "P",
    strategy: str = "rectangle",
) -> ProgramExecutor:
    """The supervisor role of §3.3/Figure 7: size, place and configure
    one processor per basic block, then return a ready executor.

    "Another processor, which may be a preceding atomic block or
    supervisor processor[,] configures the four processors."  Each
    block's processor is sized so its datapath fits the stack capacity
    (§2.5's streaming rule), and blocks are configured in program order
    — the in-order configuration that "perform[s] a spatially local
    placement" (Figure 7(b)).

    Raises
    ------
    repro.errors.RegionError
        If the fabric cannot host every block at its required scale.
    """
    program.validate()
    per_cluster = vlsi.fabric.resources.compute_objects
    placement: Dict[str, str] = {}
    for block in program.blocks():
        demand = len(block.graph)
        n_clusters = max(1, -(-demand // per_cluster))  # ceil
        proc_name = f"{name_prefix}_{block.name}"
        vlsi.create_processor(proc_name, n_clusters=n_clusters, strategy=strategy)
        placement[block.name] = proc_name
    return ProgramExecutor(vlsi, program, placement)
