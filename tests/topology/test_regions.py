"""Unit tests for arbitrary regions (sections 3.1-3.2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RegionError
from repro.topology.regions import Region, path_region, rectangle_region
from repro.topology.s_topology import STopology


class TestRegionValidation:
    def test_single_cluster_region(self):
        reg = Region(((0, 0),))
        assert len(reg) == 1
        assert (0, 0) in reg

    def test_empty_rejected(self):
        with pytest.raises(RegionError):
            Region(())

    def test_revisit_rejected(self):
        with pytest.raises(RegionError):
            Region(((0, 0), (0, 1), (0, 0)))

    def test_non_adjacent_rejected(self):
        with pytest.raises(RegionError):
            Region(((0, 0), (0, 2)))

    def test_diagonal_rejected(self):
        with pytest.raises(RegionError):
            Region(((0, 0), (1, 1)))

    def test_ring_needs_closing_adjacency(self):
        # an L of three clusters cannot close into a ring
        with pytest.raises(RegionError):
            Region(((0, 0), (0, 1), (1, 1)), ring=True)

    def test_minimal_ring_is_2x2(self):
        reg = Region(((0, 0), (0, 1), (1, 1), (1, 0)), ring=True)
        assert reg.ring
        assert len(reg) == 4


class TestRegionProperties:
    def test_capacity(self):
        reg = rectangle_region((0, 0), 2, 2)
        assert reg.capacity(16) == 64

    def test_capacity_rejects_bad_density(self):
        with pytest.raises(ValueError):
            rectangle_region((0, 0), 1, 2).capacity(0)

    def test_bounding_box(self):
        reg = rectangle_region((2, 3), 2, 4)
        assert reg.bounding_box() == ((2, 3), (3, 6))

    def test_clusters_frozenset(self):
        reg = path_region([(0, 0), (1, 0)])
        assert reg.clusters == frozenset({(0, 0), (1, 0)})


class TestRectangleRegion:
    def test_serpentine_thread(self):
        reg = rectangle_region((0, 0), 2, 3)
        assert reg.path == ((0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0))

    def test_offset_origin(self):
        reg = rectangle_region((5, 5), 1, 2)
        assert reg.path == ((5, 5), (5, 6))

    def test_rejects_degenerate(self):
        with pytest.raises(RegionError):
            rectangle_region((0, 0), 0, 3)

    @given(
        h=st.integers(min_value=1, max_value=8),
        w=st.integers(min_value=1, max_value=8),
    )
    def test_rectangle_always_valid(self, h, w):
        reg = rectangle_region((0, 0), h, w)
        assert len(reg) == h * w  # Region validates adjacency on build


def chained_switches(fab: STopology) -> int:
    """How many chain switches on ``fab`` are set."""
    return sum(fab.chain_switch_states().values())


class TestChainOnFabric:
    # A chained region is linear (§3.1): it sets exactly its own path's
    # switches, len(path) - 1 for a path and len(path) for a ring.

    def test_chain_and_unchain_roundtrip(self):
        fab = STopology(4, 4)
        reg = rectangle_region((0, 0), 2, 2)
        reg.chain_on(fab)
        assert fab.chained_component((0, 0)) == set(reg.path)
        assert chained_switches(fab) == len(reg.path) - 1
        reg.unchain_on(fab)
        assert fab.chained_component((0, 0)) == {(0, 0)}
        assert chained_switches(fab) == 0

    def test_serpentine_rectangle_is_linear(self):
        fab = STopology(4, 4)
        reg = rectangle_region((0, 0), 2, 3)
        reg.chain_on(fab)
        assert fab.chained_component((0, 0)) == set(reg.path)
        assert chained_switches(fab) == len(reg.path) - 1

    def test_ring_chains_closing_edge(self):
        fab = STopology(4, 4)
        reg = Region(((0, 0), (0, 1), (1, 1), (1, 0)), ring=True)
        reg.chain_on(fab)
        assert fab.chain_switch((1, 0), (0, 0)).is_chained
        assert chained_switches(fab) == len(reg.path)
        reg.unchain_on(fab)
        assert not fab.chain_switch((1, 0), (0, 0)).is_chained
        assert chained_switches(fab) == 0

    def test_arbitrary_l_shape(self):
        # "any arbitrary shape that may be formed by connecting the clusters"
        fab = STopology(4, 4)
        l_shape = path_region([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)])
        l_shape.chain_on(fab)
        assert fab.chained_component((0, 0)) == set(l_shape.path)
        assert chained_switches(fab) == len(l_shape.path) - 1
