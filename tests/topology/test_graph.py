"""Unit tests for the networkx export (optional integration)."""

import pytest

networkx = pytest.importorskip("networkx")

from repro.topology.graph import (
    configured_components,
    to_networkx,
    verify_linear_region,
)
from repro.topology.regions import rectangle_region
from repro.topology.rings import ring_region
from repro.topology.s_topology import STopology


class TestExport:
    def test_potential_topology_is_grid_graph(self):
        fabric = STopology(4, 4)
        g = to_networkx(fabric)
        assert g.number_of_nodes() == 16
        assert g.number_of_edges() == 2 * 4 * 3
        reference = networkx.grid_2d_graph(4, 4)
        assert networkx.is_isomorphic(g, reference)

    def test_node_attributes(self):
        fabric = STopology(2, 2)
        fabric.cluster((0, 0)).allocate("A")
        fabric.cluster((1, 1)).mark_defective()
        g = to_networkx(fabric)
        assert g.nodes[(0, 0)]["owner"] == "A"
        assert g.nodes[(1, 1)]["defective"]

    def test_chained_only_starts_empty(self):
        g = to_networkx(STopology(4, 4), chained_only=True)
        assert g.number_of_edges() == 0

    def test_chained_only_tracks_regions(self):
        fabric = STopology(4, 4)
        rectangle_region((0, 0), 2, 2).chain_on(fabric)
        g = to_networkx(fabric, chained_only=True)
        assert g.number_of_edges() == 3


class TestComponents:
    def test_two_regions_two_components(self):
        fabric = STopology(6, 6)
        r1 = rectangle_region((0, 0), 2, 2)
        r2 = rectangle_region((3, 3), 2, 3)
        r1.chain_on(fabric)
        r2.chain_on(fabric)
        comps = [c for c in configured_components(fabric) if len(c) > 1]
        assert sorted(map(len, comps)) == [4, 6]
        assert set(r1.path) in comps


class TestLinearVerification:
    def test_serpentine_region_is_linear(self):
        fabric = STopology(4, 4)
        region = rectangle_region((0, 0), 2, 3)
        region.chain_on(fabric)
        assert verify_linear_region(fabric, set(region.path))

    def test_ring_region_is_linear(self):
        fabric = STopology(6, 6)
        region = ring_region((1, 1), 3, 3)
        region.chain_on(fabric)
        assert verify_linear_region(fabric, set(region.path))

    def test_singleton(self):
        fabric = STopology(2, 2)
        assert verify_linear_region(fabric, {(0, 0)})

    def test_branching_is_not_linear(self):
        # chain a T shape: centre has degree 3 -> not a legal stack
        fabric = STopology(3, 3)
        fabric.chain_path([(0, 1), (1, 1), (2, 1)])
        fabric.chain_path([(1, 1), (1, 2)])
        coords = {(0, 1), (1, 1), (2, 1), (1, 2)}
        assert not verify_linear_region(fabric, coords)

    def test_disconnected_set_is_not_linear(self):
        fabric = STopology(3, 3)
        fabric.chain_path([(0, 0), (0, 1)])
        assert not verify_linear_region(fabric, {(0, 0), (0, 1), (2, 2)})
