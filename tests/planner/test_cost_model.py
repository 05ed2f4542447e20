"""Unit tests for the directed-edge delta cost model, and its oracle: the
price of a planned move equals the switch stores the configurator makes
when it runs that move."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner import RewireCost
from repro.planner.cost import (
    FLITS_PER_CHAIN,
    WRITES_PER_EDGE,
    delta_move,
    naive_move_cost,
    putback_cost,
)
from repro.topology.regions import Region, edge_delta, path_region
from repro.topology.switches import SwitchState
from tests.noc.test_wormhole import _regions, _twin

ROW4 = [(0, 0), (0, 1), (0, 2), (0, 3)]
#: A one-cluster region away from the others: it has no edges, so the
#: delta from it is the whole of the other region's wiring.
LONE = path_region([(3, 3)])


class TestRewireCost:
    def test_total_and_downtime(self):
        cost = RewireCost(switch_writes=6, config_flits=2)
        assert cost.total == 8
        assert cost.downtime_cycles == 8

    def test_addition(self):
        total = RewireCost(2, 1) + RewireCost(4, 0)
        assert total == RewireCost(6, 1)

    def test_two_register_writes_per_edge(self):
        # one store to the chain switch, one to the shift switch (§3.2),
        # and one worm flit per chain instruction
        assert WRITES_PER_EDGE == 2
        assert FLITS_PER_CHAIN == 1
        assert delta_move("P", LONE, path_region([(0, 0), (0, 1)])).cost == (
            RewireCost(switch_writes=2, config_flits=1)
        )


class TestDirectedEdges:
    """A region's directed wiring is its delta from a lone cluster."""

    def test_path_edges_are_consecutive_pairs(self):
        assert edge_delta(LONE, path_region(ROW4)) == (
            [],
            [((0, 0), (0, 1)), ((0, 1), (0, 2)), ((0, 2), (0, 3))],
        )

    def test_ring_adds_closing_edge(self):
        ring = path_region([(0, 0), (0, 1), (1, 1), (1, 0)], ring=True)
        removed, added = edge_delta(ring, LONE)
        assert removed[-1] == ((1, 0), (0, 0))
        assert added == []
        # four edges, the closing one included, each chained with a flit
        assert delta_move("R", LONE, ring).cost == RewireCost(8, 4)

    def test_single_cluster_has_no_edges(self):
        single = path_region([(0, 0)])
        assert edge_delta(single, LONE) == ([], [])
        assert naive_move_cost(single, LONE) == RewireCost()


class TestDiffRegions:
    """The delta between two regions: only the differing directed edges."""

    def test_identical_regions_need_nothing(self):
        region = path_region(ROW4)
        assert edge_delta(region, region) == ([], [])
        assert delta_move("P", region, region).cost == RewireCost()

    def test_overlapping_slide_touches_only_the_delta(self):
        # slide one column left: three of four edges survive untouched
        old = path_region([(0, 1), (0, 2), (0, 3), (1, 3)])
        new = path_region(ROW4)
        assert edge_delta(old, new) == (
            [((0, 3), (1, 3))],
            [((0, 0), (0, 1))],
        )
        assert delta_move("P", old, new).cost == RewireCost(
            switch_writes=4, config_flits=1
        )

    def test_reversed_segment_is_rewired(self):
        # shift switches are unidirectional: a -> b is not b -> a
        old = path_region([(0, 0), (0, 1)])
        new = path_region([(0, 1), (0, 0)])
        assert edge_delta(old, new) == (
            [((0, 0), (0, 1))],
            [((0, 1), (0, 0))],
        )
        assert delta_move("P", old, new).cost == RewireCost(4, 1)

    def test_unchains_precede_chains(self):
        # the configurator unchains the removed edges (freeing switches
        # before re-purposing them), then chains the added ones
        old = path_region([(0, 0), (0, 1), (0, 2)])
        new = path_region([(0, 2), (0, 3)])
        fabric, cfg = _twin(with_network=False)
        cfg.configure(old, owner="P")
        stores = _record_stores(fabric)
        cfg.reconfigure(old, new, owner="P")
        removed, added = edge_delta(old, new)
        assert stores == [
            (SwitchState.UNCHAINED, removed),
            (SwitchState.CHAINED, added),
        ]


class TestNaiveAndPutback:
    def test_naive_move_ignores_overlap(self):
        old = path_region([(0, 1), (0, 2), (0, 3), (1, 3)])
        new = path_region(ROW4)
        naive = naive_move_cost(old, new)
        # 3 unchains + 3 chains, two writes each, one flit per chain
        assert naive == RewireCost(switch_writes=12, config_flits=3)
        assert delta_move("P", old, new).cost.total < naive.total

    def test_putback_is_a_move_onto_itself(self):
        region = path_region(ROW4)
        assert putback_cost(region) == naive_move_cost(region, region)
        # the legacy loop pays this for every visited non-mover
        assert putback_cost(region) == RewireCost(
            switch_writes=12, config_flits=3
        )

    def test_full_ops_cover_every_edge(self):
        region = path_region(ROW4)
        # release unchains every edge and ships no flit (direct
        # clearing of active state); configure chains every edge
        assert naive_move_cost(region, LONE) == RewireCost(6, 0)
        assert naive_move_cost(LONE, region) == RewireCost(6, 3)


def _record_stores(fabric):
    """Record every ``STopology.program`` call on ``fabric`` as
    ``(state, edges)``, still storing."""
    stores = []
    program = fabric.program

    def recording(edges, state):
        edges = list(edges)
        stores.append((state, edges))
        program(edges, state)

    fabric.program = recording
    return stores


def _stored_edges(stores):
    return sum(len(edges) for _, edges in stores)


class TestPricingOracle:
    """A planned move's price is the switch stores the configurator
    makes when it runs the move: two register writes per edge
    ``STopology.program`` stores, one flit per chain instruction the
    worm applied."""

    @settings(max_examples=150, deadline=None)
    @given(old=_regions(), new=_regions(), with_network=st.booleans())
    def test_delta_price_is_what_reconfigure_stores(
        self, old, new, with_network
    ):
        fabric, cfg = _twin(with_network)
        cfg.configure(old, owner="P")
        stores = _record_stores(fabric)
        op = cfg.reconfigure(old, new, owner="P")
        assert delta_move("P", old, new).cost == RewireCost(
            WRITES_PER_EDGE * _stored_edges(stores), op.switches_programmed
        )

    @settings(max_examples=150, deadline=None)
    @given(old=_regions(), new=_regions(), with_network=st.booleans())
    def test_naive_price_is_what_release_then_configure_stores(
        self, old, new, with_network
    ):
        fabric, cfg = _twin(with_network)
        cfg.configure(old, owner="P")
        stores = _record_stores(fabric)
        cfg.release(old, owner="P")
        op = cfg.configure(new, owner="P")
        assert naive_move_cost(old, new) == RewireCost(
            WRITES_PER_EDGE * _stored_edges(stores), op.switches_programmed
        )


class TestEdgeReads:
    """Host-independent guards on pricing work: the naive price is a
    closed form of two edge counts, and a delta lists each region's
    edges once."""

    def _count_reads(self, monkeypatch):
        reads = []
        edges = Region.edges

        def counted(region):
            reads.append(region)
            return edges(region)

        monkeypatch.setattr(Region, "edges", counted)
        return reads

    def test_delta_move_lists_each_region_once(self, monkeypatch):
        old = path_region([(0, 1), (0, 2), (0, 3), (1, 3)])
        new = path_region(ROW4)
        reads = self._count_reads(monkeypatch)
        delta_move("P", old, new)
        assert len(reads) <= 2

    def test_naive_prices_list_no_edges(self, monkeypatch):
        ring = path_region([(0, 0), (0, 1), (1, 1), (1, 0)], ring=True)
        row = path_region(ROW4)
        reads = self._count_reads(monkeypatch)
        naive_move_cost(ring, row)
        putback_cost(ring)
        assert reads == []

