"""Executing rewire plans: strictness, rollback, accounting."""

import pytest

from repro import telemetry
from repro.core.defrag import Defragmenter
from repro.core.scaling import ScalingController
from repro.errors import FaultInjectionError, PlannerError
from repro.planner import MinimalPlanner, build_scenario, execute_plan


class _OneShotFault:
    """Fault injector that fails exactly one switch programming."""

    def __init__(self):
        self.fired = False

    def chain_switch_fault(self, a, b):
        if not self.fired:
            self.fired = True
            return True
        return False


def _layout(vlsi):
    return {name: p.region for name, p in vlsi.processors.items()}


class TestStrictness:
    def test_stale_region_raises(self):
        chip = build_scenario("checkerboard")
        plan = MinimalPlanner(mode="greedy").plan_compaction(chip)
        mover = plan.moves[0].name
        # invalidate the snapshot: the mover shrinks behind the plan's back
        ScalingController(chip).down_scale(mover, 1)
        with pytest.raises(PlannerError, match="stale"):
            execute_plan(chip, plan)

    def test_non_inactive_processor_raises(self):
        chip = build_scenario("checkerboard")
        plan = MinimalPlanner(mode="greedy").plan_compaction(chip)
        chip.activate(plan.moves[0].name)
        with pytest.raises(PlannerError, match="not inactive"):
            execute_plan(chip, plan)

    def test_destroyed_processor_raises(self):
        chip = build_scenario("checkerboard")
        plan = MinimalPlanner(mode="greedy").plan_compaction(chip)
        chip.destroy_processor(plan.moves[0].name)
        with pytest.raises(PlannerError, match="stale"):
            execute_plan(chip, plan)


class TestRollback:
    def test_delta_reconfigure_rolls_back_on_fault(self):
        chip = build_scenario("checkerboard")
        plan = MinimalPlanner(mode="greedy").plan_compaction(chip)
        before = _layout(chip)
        chip.configurator.faults = _OneShotFault()
        with pytest.raises(FaultInjectionError):
            execute_plan(chip, plan)
        # the failed move was rolled back: every processor still holds
        # (and owns) its pre-plan region, fully chained
        assert _layout(chip) == before
        for proc in chip.processors.values():
            assert chip.fabric.chained_component(
                proc.region.path[0]
            ) == set(proc.region.path)


class TestAccounting:
    def test_counters_record_the_ledger(self):
        telemetry.reset()
        chip = build_scenario("pinned-band")
        plan = MinimalPlanner(mode="greedy").plan_compaction(chip)
        execute_plan(chip, plan)
        counters = telemetry.snapshot()["counters"]
        assert counters["planner.plans_executed"] == 1
        assert counters["planner.rewires_saved"] == plan.rewires_saved
        assert counters["planner.switch_writes"] == plan.cost.switch_writes
        assert counters["planner.config_flits"] == plan.cost.config_flits

    def test_series_records_only_under_observation(self):
        telemetry.reset()
        chip = build_scenario("pinned-band")
        plan = MinimalPlanner(mode="greedy").plan_compaction(chip)
        telemetry.enable_observation()
        try:
            execute_plan(chip, plan)
        finally:
            telemetry.enable_observation(False)
        series = telemetry.snapshot()["series"]
        assert "planner.rewires_saved" in series
        telemetry.reset()

    def test_defragmenter_integration_records_the_plan(self):
        chip = build_scenario("mixed-sizes")
        defrag = Defragmenter(chip, planner=MinimalPlanner(mode="greedy"))
        moves = defrag.compact_until_stable()
        assert moves
        assert defrag.last_plan is not None
        assert defrag.last_plan.rewires_saved > 0
        assert defrag.fragmentation() == 0.0
