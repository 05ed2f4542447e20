"""Planning fidelity and savings across the shared scenario suite."""

import pytest

from repro import telemetry
from repro.core.defrag import Defragmenter
from repro.errors import PlannerError
from repro.planner import (
    MinimalPlanner,
    NaivePlanner,
    build_scenario,
    execute_plan,
    scenario_names,
    simulate_compaction,
)


def _layout(vlsi):
    return {name: p.region for name, p in vlsi.processors.items()}


class TestSimulation:
    @pytest.mark.parametrize("name", scenario_names())
    def test_naive_plan_replays_legacy_moves(self, name):
        naive = NaivePlanner().plan_compaction(build_scenario(name))
        legacy = Defragmenter(build_scenario(name)).compact_until_stable()
        planned = [
            (m.name, m.old.path[0], m.new.path[0], len(m.new))
            for m in naive.moves
        ]
        executed = [
            (m.name, m.old_start, m.new_start, m.clusters) for m in legacy
        ]
        assert planned == executed

    @pytest.mark.parametrize("name", scenario_names())
    def test_naive_ledger_prices_what_legacy_runs(self, name):
        # the planner-less path must still pay every put-back at runtime:
        # one configure per visit, one chained switch per ledger flit
        chip = build_scenario(name)
        naive = NaivePlanner().plan_compaction(chip)
        telemetry.reset()
        Defragmenter(chip).compact_until_stable()
        counters = telemetry.snapshot()["counters"]
        assert counters["wormhole.switches_programmed"] == (
            naive.cost.config_flits
        )
        assert counters["wormhole.configures"] == (
            len(naive.moves) + naive.meta["putbacks"]
        )

    def test_simulation_never_mutates_the_chip(self):
        chip = build_scenario("checkerboard")
        before = _layout(chip)
        free = chip.allocator.free_count()
        simulate_compaction(chip)
        assert _layout(chip) == before
        assert chip.allocator.free_count() == free

    @pytest.mark.parametrize("name", scenario_names())
    def test_simulated_final_layout_matches_execution(self, name):
        chip = build_scenario(name)
        sim = simulate_compaction(chip)
        Defragmenter(chip).compact_until_stable()
        for proc, region in sim.final.items():
            assert chip.processors[proc].region == region

    def test_unknown_scenario_rejected(self):
        with pytest.raises(PlannerError, match="unknown defrag scenario"):
            build_scenario("no-such-layout")


class TestMinimalPlanner:
    @pytest.mark.parametrize("name", scenario_names())
    def test_strictly_cheaper_than_naive(self, name):
        chip = build_scenario(name)
        naive = NaivePlanner().plan_compaction(chip)
        minimal = MinimalPlanner(mode="greedy").plan_compaction(chip)
        assert minimal.cost.total < naive.cost.total
        assert minimal.cost.switch_writes < naive.cost.switch_writes
        assert minimal.cost.config_flits <= naive.cost.config_flits
        assert minimal.rewires_saved == naive.cost.total - minimal.cost.total

    @pytest.mark.parametrize("name", scenario_names())
    def test_greedy_execution_matches_legacy_layout(self, name):
        legacy_chip = build_scenario(name)
        Defragmenter(legacy_chip).compact_until_stable()

        planned_chip = build_scenario(name)
        plan = MinimalPlanner(mode="greedy").plan_compaction(planned_chip)
        execute_plan(planned_chip, plan)
        assert _layout(planned_chip) == _layout(legacy_chip)

    @pytest.mark.parametrize("name", scenario_names())
    def test_exact_never_worse_than_greedy(self, name):
        chip = build_scenario(name)
        greedy = MinimalPlanner(mode="greedy").plan_compaction(chip)
        exact = MinimalPlanner(mode="exact").plan_compaction(chip)
        assert exact.cost.total <= greedy.cost.total

    def test_exact_demo_beats_greedy(self):
        # greedy ripples both processors forward; exact moves only one
        chip = build_scenario("exact-demo")
        greedy = MinimalPlanner(mode="greedy").plan_compaction(chip)
        exact = MinimalPlanner(mode="exact").plan_compaction(chip)
        assert len(exact.moves) < len(greedy.moves)
        assert exact.cost.total < greedy.cost.total

    def test_exact_execution_coalesces_no_less_free_space(self):
        greedy_chip = build_scenario("exact-demo")
        execute_plan(
            greedy_chip,
            MinimalPlanner(mode="greedy").plan_compaction(greedy_chip),
        )
        exact_chip = build_scenario("exact-demo")
        execute_plan(
            exact_chip,
            MinimalPlanner(mode="exact").plan_compaction(exact_chip),
        )
        assert (
            exact_chip.allocator.largest_free_run()
            >= greedy_chip.allocator.largest_free_run()
        )

    def test_auto_uses_exact_below_the_region_limit(self):
        plan = MinimalPlanner(mode="auto").plan_compaction(
            build_scenario("exact-demo")
        )
        assert plan.mode == "exact"

    def test_auto_falls_back_to_greedy_above_the_limit(self):
        plan = MinimalPlanner(mode="auto", exact_limit=1).plan_compaction(
            build_scenario("checkerboard")
        )
        assert plan.mode == "greedy"

    def test_unknown_mode_rejected(self):
        with pytest.raises(PlannerError, match="unknown planner mode"):
            MinimalPlanner(mode="optimal")

    def test_already_compact_costs_nothing(self):
        chip = build_scenario("already-compact")
        plan = MinimalPlanner(mode="greedy").plan_compaction(chip)
        assert plan.moves == ()
        assert plan.cost.total == 0
        # ...while the legacy loop still pays put-backs every pass
        assert plan.naive_cost.total > 0

