"""Unit tests for ring configurations (Figure 5)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RegionError
from repro.topology.metrics import manhattan
from repro.topology.rings import rectangular_ring_path, ring_region
from repro.topology.s_topology import STopology


class TestRectangularRingPath:
    def test_2x2_perimeter(self):
        assert rectangular_ring_path((0, 0), 2, 2) == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_3x3_perimeter_excludes_center(self):
        path = rectangular_ring_path((0, 0), 3, 3)
        assert len(path) == 8
        assert (1, 1) not in path

    def test_perimeter_length_formula(self):
        path = rectangular_ring_path((0, 0), 4, 6)
        assert len(path) == 2 * (4 + 6) - 4

    def test_rejects_thin_ring(self):
        with pytest.raises(RegionError):
            rectangular_ring_path((0, 0), 1, 5)

    @given(
        h=st.integers(min_value=2, max_value=8),
        w=st.integers(min_value=2, max_value=8),
    )
    def test_path_is_simple_closed_cycle(self, h, w):
        path = rectangular_ring_path((0, 0), h, w)
        assert len(set(path)) == len(path)
        # consecutive steps adjacent, and it closes back to the start
        for a, b in zip(path, path[1:] + path[:1]):
            assert manhattan(a, b) == 1


class TestRingRegion:
    def test_builds_ring_region(self):
        reg = ring_region((1, 1), 3, 4)
        assert reg.ring
        assert len(reg) == 2 * (3 + 4) - 4

    def test_ring_region_is_linear(self):
        # a chained ring is one closed stack: it sets exactly its own
        # len(path) switches, the closing edge included, and no others
        fab = STopology(6, 6)
        reg = ring_region((1, 1), 3, 3)
        reg.chain_on(fab)
        assert fab.chained_component((1, 1)) == set(reg.path)
        assert sum(fab.chain_switch_states().values()) == len(reg.path)

    def test_multiple_disjoint_rings_on_one_fabric(self):
        # Figure 5 shows several rings coexisting on the S-topology.
        fab = STopology(8, 8)
        r1 = ring_region((0, 0), 3, 3)
        r2 = ring_region((4, 4), 4, 4)
        assert r1.clusters.isdisjoint(r2.clusters)
        r1.chain_on(fab)
        r2.chain_on(fab)
        assert fab.chained_component((0, 0)) == set(r1.path)
        assert fab.chained_component((4, 4)) == set(r2.path)
        # each ring is linear: it sets its own len(path) switches, no more
        chained = sum(fab.chain_switch_states().values())
        assert chained == len(r1.path) + len(r2.path)

    def test_ring_component_is_closed(self):
        fab = STopology(4, 4)
        reg = ring_region((0, 0), 2, 2)
        reg.chain_on(fab)
        # from any member, the whole ring is reachable
        for coord in reg.path:
            assert fab.chained_component(coord) == set(reg.path)
