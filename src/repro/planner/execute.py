"""Executing a :class:`RewirePlan` against a live chip.

The executor is deliberately strict: each move must find the fabric in
exactly the state the plan snapshot assumed (same owner, same region,
still INACTIVE) — a stale plan raises :class:`PlannerError` instead of
improvising.  Every move goes through
:meth:`WormholeConfigurator.reconfigure`, which rolls a failed move back
to its old region, so no processor is left regionless.
"""

from __future__ import annotations

from typing import List

from repro import telemetry
from repro.core.defrag import MoveRecord
from repro.core.states import ProcessorState
from repro.core.vlsi_processor import VLSIProcessor
from repro.errors import PlannerError
from repro.planner.plan import RewirePlan

__all__ = ["execute_plan", "record_plan_savings"]


def execute_plan(vlsi: VLSIProcessor, plan: RewirePlan) -> List[MoveRecord]:
    """Apply ``plan`` to ``vlsi``, returning legacy-shaped move records.

    Put-backs are not part of any plan's move list (the naive plan only
    *prices* them), so no move releases and re-configures a processor
    in place.
    """
    records: List[MoveRecord] = []
    for move in plan.moves:
        instance = vlsi.processors.get(move.name)
        if instance is None or instance.region != move.old:
            raise PlannerError(
                f"plan is stale: {move.name!r} no longer holds "
                f"the planned region"
            )
        if instance.state.state is not ProcessorState.INACTIVE:
            raise PlannerError(
                f"plan is stale: {move.name!r} is "
                f"{instance.state.state.value}, not inactive"
            )
        vlsi.configurator.reconfigure(move.old, move.new, owner=move.name)
        instance.region = move.new
        records.append(
            MoveRecord(
                move.name, move.old.path[0], move.new.path[0], len(move.new)
            )
        )
    record_plan_savings(plan)
    return records


def record_plan_savings(plan: RewirePlan) -> None:
    """Publish a plan's cost ledger to the observatory.

    The counters always tick (counters are cheap and merge across
    workers); the time series only records when observation is enabled,
    same discipline as every other instrumented path.
    """
    telemetry.counter("planner.plans_executed").inc()
    telemetry.counter("planner.rewires_saved").inc(plan.rewires_saved)
    telemetry.counter("planner.switch_writes").inc(plan.cost.switch_writes)
    telemetry.counter("planner.config_flits").inc(plan.cost.config_flits)
    if telemetry.observer().enabled:
        tick = int(telemetry.counter("planner.plans_executed").value)
        telemetry.time_series("planner.rewires_saved").record(
            tick, float(plan.rewires_saved)
        )
