"""Unit tests for the directed-edge diffing cost model."""

import pytest

from repro.planner import RewireCost, SwitchOp
from repro.planner.cost import (
    diff_regions,
    directed_edges,
    full_chain_ops,
    full_unchain_ops,
    naive_move_cost,
    ops_cost,
    putback_cost,
)
from repro.topology.regions import path_region

ROW4 = [(0, 0), (0, 1), (0, 2), (0, 3)]


class TestSwitchOp:
    def test_two_register_writes_per_op(self):
        # one store to the chain switch, one to the shift switch (§3.2)
        assert SwitchOp.WRITES == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown switch op"):
            SwitchOp("toggle", (0, 0), (0, 1))


class TestRewireCost:
    def test_total_and_downtime(self):
        cost = RewireCost(switch_writes=6, config_flits=2)
        assert cost.total == 8
        assert cost.downtime_cycles == 8

    def test_addition(self):
        total = RewireCost(2, 1) + RewireCost(4, 0)
        assert total == RewireCost(6, 1)


class TestDirectedEdges:
    def test_path_edges_are_consecutive_pairs(self):
        region = path_region(ROW4)
        assert directed_edges(region) == [
            ((0, 0), (0, 1)),
            ((0, 1), (0, 2)),
            ((0, 2), (0, 3)),
        ]

    def test_ring_adds_closing_edge(self):
        ring = path_region([(0, 0), (0, 1), (1, 1), (1, 0)], ring=True)
        assert directed_edges(ring)[-1] == ((1, 0), (0, 0))

    def test_single_cluster_has_no_edges(self):
        assert directed_edges(path_region([(0, 0)])) == []


class TestDiffRegions:
    def test_identical_regions_need_nothing(self):
        region = path_region(ROW4)
        assert diff_regions(region, region) == ()

    def test_overlapping_slide_touches_only_the_delta(self):
        # slide one column left: three of four edges survive untouched
        old = path_region([(0, 1), (0, 2), (0, 3), (1, 3)])
        new = path_region(ROW4)
        ops = diff_regions(old, new)
        assert ops == (
            SwitchOp("unchain", (0, 3), (1, 3)),
            SwitchOp("chain", (0, 0), (0, 1)),
        )
        assert ops_cost(ops) == RewireCost(switch_writes=4, config_flits=1)

    def test_reversed_segment_is_rewired(self):
        # shift switches are unidirectional: a -> b is not b -> a
        old = path_region([(0, 0), (0, 1)])
        new = path_region([(0, 1), (0, 0)])
        assert diff_regions(old, new) == (
            SwitchOp("unchain", (0, 0), (0, 1)),
            SwitchOp("chain", (0, 1), (0, 0)),
        )

    def test_unchains_precede_chains(self):
        old = path_region([(0, 0), (0, 1), (0, 2)])
        new = path_region([(0, 2), (0, 3)])
        kinds = [op.kind for op in diff_regions(old, new)]
        assert kinds == sorted(kinds, reverse=True)  # unchain* then chain*


class TestNaiveAndPutback:
    def test_naive_move_ignores_overlap(self):
        old = path_region([(0, 1), (0, 2), (0, 3), (1, 3)])
        new = path_region(ROW4)
        naive = naive_move_cost(old, new)
        # 3 unchains + 3 chains, two writes each, one flit per chain
        assert naive == RewireCost(switch_writes=12, config_flits=3)
        assert ops_cost(diff_regions(old, new)).total < naive.total

    def test_putback_is_a_move_onto_itself(self):
        region = path_region(ROW4)
        assert putback_cost(region) == naive_move_cost(region, region)
        # the legacy loop pays this for every visited non-mover
        assert putback_cost(region) == RewireCost(
            switch_writes=12, config_flits=3
        )

    def test_full_ops_cover_every_edge(self):
        region = path_region(ROW4)
        assert len(full_unchain_ops(region)) == 3
        assert len(full_chain_ops(region)) == 3
        # unchaining ships no flits (direct clearing of active state)
        assert ops_cost(full_unchain_ops(region)).config_flits == 0
