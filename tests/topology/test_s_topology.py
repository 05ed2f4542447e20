"""Unit tests for the S-topology fabric (Figure 4(a), section 3.1)."""

import pytest

from repro.errors import TopologyError
from repro.topology.cluster import ClusterResources
from repro.topology.s_topology import STopology
from repro.topology.switches import SwitchState


@pytest.fixture
def fabric():
    return STopology(8, 8)


class TestConstruction:
    def test_8x8_has_64_clusters(self, fabric):
        assert len(fabric) == 64

    def test_rejects_empty_grid(self):
        with pytest.raises(TopologyError):
            STopology(0, 4)

    def test_custom_resources_propagate(self):
        fab = STopology(2, 2, ClusterResources(4, 4, 1))
        assert fab.cluster((0, 0)).resources.compute_objects == 4

    def test_contains_and_cluster_lookup(self, fabric):
        assert (7, 7) in fabric
        assert (8, 0) not in fabric
        with pytest.raises(TopologyError):
            fabric.cluster((8, 0))

    def test_all_clusters_free_initially(self, fabric):
        assert fabric.free_mask() == (1 << 64) - 1


class TestNeighbors:
    def test_interior_has_four(self, fabric):
        assert len(fabric.neighbors((3, 3))) == 4

    def test_corner_has_two(self, fabric):
        assert sorted(fabric.neighbors((0, 0))) == [(0, 1), (1, 0)]

    def test_edge_has_three(self, fabric):
        assert len(fabric.neighbors((0, 3))) == 3

    def test_outside_raises(self, fabric):
        with pytest.raises(TopologyError):
            fabric.neighbors((9, 9))


class TestSwitchRegularity:
    """Section 3.1 property 3: regular chain/unchain switch points."""

    def test_one_chain_switch_per_grid_edge(self, fabric):
        chain, shift = fabric.switch_count()
        edges = 8 * 7 + 8 * 7  # horizontal + vertical
        assert chain == edges
        assert shift == 2 * edges

    def test_chain_switch_is_undirected(self, fabric):
        assert fabric.chain_switch((0, 0), (0, 1)) is fabric.chain_switch((0, 1), (0, 0))

    def test_shift_switch_is_directed(self, fabric):
        fwd = fabric.shift_switch((0, 0), (0, 1))
        bwd = fabric.shift_switch((0, 1), (0, 0))
        assert fwd is not bwd

    def test_no_switch_between_non_neighbors(self, fabric):
        with pytest.raises(TopologyError):
            fabric.chain_switch((0, 0), (0, 2))
        with pytest.raises(TopologyError):
            fabric.shift_switch((0, 0), (1, 1))

    def test_all_switches_default_unchained(self, fabric):
        assert all(not sw.is_chained for sw in fabric.all_switches())

    def test_each_chain_switch_listed_once_oriented_row_major(self, fabric):
        chain, shift = fabric.switch_count()
        switches = list(fabric.all_switches())
        assert len(switches) == chain + shift
        chains = [sw for sw in switches if sw.bidirectional]
        assert len({id(sw) for sw in chains}) == chain
        # each keeps the orientation it was first seen in, row-major
        assert all(sw.endpoints[0] < sw.endpoints[1] for sw in chains)
        assert all(
            fabric.chain_switch(*sw.endpoints)
            is fabric.chain_switch(*reversed(sw.endpoints)) is sw
            for sw in chains
        )


class TestFractalProperty:
    """Section 3.1 property 1: hierarchical / fractal structure."""

    def test_subgrids_isomorphic(self, fabric):
        for dims in [(2, 2), (4, 4), (2, 8), (8, 8)]:
            assert fabric.is_subgrid_isomorphic(*dims)

    def test_oversized_subgrid_rejected(self, fabric):
        assert not fabric.is_subgrid_isomorphic(9, 9)


class TestChaining:
    def test_chain_path_programs_switches(self, fabric):
        path = [(0, 0), (0, 1), (1, 1)]
        fabric.chain_path(path)
        assert fabric.chain_switch((0, 0), (0, 1)).is_chained
        assert fabric.chain_switch((0, 1), (1, 1)).is_chained
        assert fabric.shift_switch((0, 0), (0, 1)).is_chained
        # reverse shift direction stays unchained (stack shifts one way)
        assert not fabric.shift_switch((0, 1), (0, 0)).is_chained

    def test_chain_path_rejects_jump(self, fabric):
        with pytest.raises(TopologyError):
            fabric.chain_path([(0, 0), (2, 0)])

    def test_program_rejects_non_adjacent_edge_and_non_state(self, fabric):
        with pytest.raises(TopologyError):
            fabric.program([((0, 0), (0, 2))], SwitchState.CHAINED)
        with pytest.raises(TypeError):
            fabric.program([((0, 0), (0, 1))], 1)
        assert not any(sw.is_chained for sw in fabric.all_switches())

    def test_unchain_path_reverts(self, fabric):
        path = [(0, 0), (0, 1), (0, 2)]
        fabric.chain_path(path)
        fabric.unchain_path(path)
        assert all(not sw.is_chained for sw in fabric.all_switches())

    def test_chained_component_follows_switches(self, fabric):
        fabric.chain_path([(0, 0), (0, 1), (1, 1)])
        assert fabric.chained_component((0, 0)) == {(0, 0), (0, 1), (1, 1)}
        # an unrelated cluster is its own component
        assert fabric.chained_component((5, 5)) == {(5, 5)}

    def test_component_of_outside_coord_raises(self, fabric):
        with pytest.raises(TopologyError):
            fabric.chained_component((100, 0))


class TestLinearOrder:
    def test_full_grid_serpentine(self, fabric):
        order = fabric.linear_order()
        assert order[0] == (0, 0)
        assert order[7] == (0, 7)
        assert order[8] == (1, 7)  # the fold turns
        assert len(order) == 64

    def test_folded_once_per_fabric(self, monkeypatch):
        """Host-independent guard: the 256 coordinates of a 16x16 fold
        are computed once, not once per call."""
        from repro.core.allocation import ClusterAllocator
        from repro.topology import folding

        folds = []
        fold = folding.serpentine_fold

        def counted_fold(index, cols):
            folds.append(index)
            return fold(index, cols)

        monkeypatch.setattr(folding, "serpentine_fold", counted_fold)
        fab = STopology(16, 16)
        allocator = ClusterAllocator(fab)
        for _ in range(100):
            assert len(fab.linear_order()) == 256
            assert len(allocator.find_serpentine(4)) == 4
        assert len(folds) <= 256

    def test_returns_a_fresh_list(self, fabric):
        order = fabric.linear_order()
        assert isinstance(order, list)
        order.reverse()
        assert fabric.linear_order()[0] == (0, 0)


class TestRender:
    def test_render_shows_owner_and_defect(self, fabric):
        fabric.cluster((0, 0)).allocate("A")
        fabric.cluster((0, 1)).mark_defective()
        art = fabric.render()
        first = art.splitlines()[0].split()
        assert first[0] == "A"
        assert first[1] == "X"
        assert first[2] == "."
