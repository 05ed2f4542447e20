"""Unit tests for two-phase wormhole reconfiguration (section 3.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.scaling import ScalingController
from repro.core.vlsi_processor import VLSIProcessor
from repro.errors import AllocationConflictError, DefectError, RegionError
from repro.noc.network import RouterNetwork
from repro.noc.wormhole import WORM_FAILURES, WormholeConfigurator
from repro.topology.regions import Region, path_region, rectangle_region
from repro.topology.rings import ring_region
from repro.topology.s_topology import STopology
from tests.planner.test_execute import _OneShotFault


@pytest.fixture
def fabric():
    return STopology(8, 8)


@pytest.fixture
def cfg(fabric):
    return WormholeConfigurator(fabric)


class TestConfigure:
    def test_region_chained_and_owned(self, fabric, cfg):
        region = rectangle_region((1, 1), 2, 2)
        op = cfg.configure(region, owner="P1")
        assert op.switches_programmed == 3
        assert fabric.chained_component((1, 1)) == set(region.path)
        assert all(fabric.cluster(c).owner == "P1" for c in region.path)

    def test_reservation_flags_cleared_after_commit(self, fabric, cfg):
        region = rectangle_region((0, 0), 2, 3)
        cfg.configure(region, owner="P1")
        for a, b in zip(region.path, region.path[1:]):
            assert not fabric.chain_switch(a, b).is_reserved

    def test_ring_region_closes(self, fabric, cfg):
        region = ring_region((2, 2), 3, 3)
        op = cfg.configure(region, owner="R")
        assert op.switches_programmed == len(region.path)  # closed cycle
        assert fabric.chain_switch(region.path[-1], region.path[0]).is_chained

    def test_occupied_cluster_conflicts(self, fabric, cfg):
        cfg.configure(rectangle_region((0, 0), 2, 2), owner="P1")
        with pytest.raises(AllocationConflictError):
            cfg.configure(path_region([(1, 1), (1, 2)]), owner="P2")

    def test_conflict_rolls_back_everything(self, fabric, cfg):
        cfg.configure(path_region([(2, 2), (2, 3)]), owner="P1")
        # P2 wants a path whose *last* cluster is P1's: must roll back fully
        with pytest.raises(AllocationConflictError):
            cfg.configure(path_region([(2, 0), (2, 1), (2, 2)]), owner="P2")
        assert fabric.cluster((2, 0)).is_free
        assert fabric.cluster((2, 1)).is_free
        assert not fabric.chain_switch((2, 0), (2, 1)).is_chained
        assert not fabric.chain_switch((2, 0), (2, 1)).is_reserved

    def test_defective_cluster_rejected(self, fabric, cfg):
        fabric.cluster((3, 3)).mark_defective()
        with pytest.raises(DefectError):
            cfg.configure(path_region([(3, 2), (3, 3)]), owner="P1")
        assert fabric.cluster((3, 2)).is_free

    def test_region_outside_fabric(self, cfg):
        with pytest.raises(RegionError):
            cfg.configure(path_region([(7, 7), (8, 7)]), owner="P1")


class TestDefectsPropagate:
    """Only protocol failures may be treated as aborted worms; a software
    defect inside a probe must escape the abort handlers untouched."""

    def test_commit_phase_defect_propagates(self, fabric):
        class BrokenProbe:
            def chain_switch_fault(self, a, b):
                raise AttributeError("defective fault probe")

        cfg = WormholeConfigurator(fabric, faults=BrokenProbe())
        aborts = telemetry.counter("wormhole.aborts").value
        with pytest.raises(AttributeError):
            cfg.configure(path_region([(1, 1), (1, 2)]), owner="P1")
        # the defect was not laundered into an aborted-attempt statistic
        assert telemetry.counter("wormhole.aborts").value == aborts

    def test_reserve_phase_defect_propagates(self, fabric, cfg, monkeypatch):
        switch = fabric.chain_switch((2, 2), (2, 3))
        monkeypatch.setattr(
            switch, "reserve",
            lambda token: (_ for _ in ()).throw(TypeError("bad token")),
        )
        conflicts = telemetry.counter("wormhole.reserve.conflicts").value
        with pytest.raises(TypeError):
            cfg.configure(path_region([(2, 2), (2, 3)]), owner="P1")
        assert telemetry.counter("wormhole.reserve.conflicts").value == conflicts


class TestRelease:
    def test_release_returns_clusters(self, fabric, cfg):
        region = rectangle_region((4, 4), 2, 2)
        cfg.configure(region, owner="P1")
        cfg.release(region, owner="P1")
        assert all(fabric.cluster(c).is_free for c in region.path)
        assert fabric.chained_component((4, 4)) == {(4, 4)}

    def test_release_wrong_owner_rejected(self, fabric, cfg):
        region = rectangle_region((4, 4), 2, 2)
        cfg.configure(region, owner="P1")
        with pytest.raises(AllocationConflictError):
            cfg.release(region, owner="P2")

    def test_reconfigure_after_release(self, fabric, cfg):
        region = rectangle_region((4, 4), 2, 2)
        cfg.configure(region, owner="P1")
        cfg.release(region, owner="P1")
        cfg.configure(region, owner="P2")  # must succeed
        assert fabric.cluster((4, 4)).owner == "P2"


class TestWithRouterNetwork:
    def test_config_cycles_measured(self, fabric):
        net = RouterNetwork(8, 8)
        cfg = WormholeConfigurator(fabric, network=net, origin=(0, 0))
        region = rectangle_region((4, 4), 2, 2)
        op = cfg.configure(region, owner="P1")
        # worm: 4 payload flits over 8 hops -> at least 8 cycles
        assert op.config_cycles >= 8

    def test_farther_regions_cost_more_cycles(self, fabric):
        net = RouterNetwork(8, 8)
        cfg = WormholeConfigurator(fabric, network=net, origin=(0, 0))
        near = cfg.configure(path_region([(0, 1), (0, 2)]), owner="A")
        far = cfg.configure(path_region([(7, 6), (7, 7)]), owner="B")
        assert far.config_cycles > near.config_cycles

    def test_route_length_helper(self, fabric):
        cfg = WormholeConfigurator(fabric, origin=(0, 0))
        assert cfg.route_length(path_region([(3, 4), (3, 5)])) == 7


class TestScalingSequence:
    def test_up_then_down_scale_cycle(self, fabric, cfg):
        """Figure 7's lifecycle: configure four processors, release two,
        fuse the freed area into a bigger one."""
        p1 = rectangle_region((0, 0), 2, 2)
        p2 = rectangle_region((0, 2), 2, 2)
        p3 = rectangle_region((2, 0), 2, 2)
        p4 = rectangle_region((2, 2), 2, 2)
        for i, reg in enumerate([p1, p2, p3, p4]):
            cfg.configure(reg, owner=f"P{i}")
        # release the bottom two and fuse their area into one 2x4 processor
        cfg.release(p3, owner="P2")
        cfg.release(p4, owner="P3")
        fused = rectangle_region((2, 0), 2, 4)
        op = cfg.configure(fused, owner="BIG")
        assert op.switches_programmed == 7
        assert fabric.chained_component((2, 0)) == set(fused.path)
        # the untouched processors are unaffected
        assert fabric.cluster((0, 0)).owner == "P0"
        assert fabric.cluster((0, 2)).owner == "P1"


class TestReconfigureTelemetry:
    def test_conflict_counted_and_traced_under_reconfigure(self, fabric, cfg):
        old = path_region([(0, 0), (0, 1)])
        cfg.configure(old, owner="P1")
        cfg.configure(path_region([(0, 3)]), owner="P2")
        conflicts = telemetry.counter("wormhole.reserve.conflicts").value
        tracer = telemetry.enable_tracing()
        tracer.clear()
        try:
            with pytest.raises(AllocationConflictError):
                cfg.reconfigure(
                    old, path_region([(0, 1), (0, 2), (0, 3)]), owner="P1"
                )
            spans = tracer.spans
        finally:
            telemetry.enable_tracing(False)
            tracer.clear()
        assert (
            telemetry.counter("wormhole.reserve.conflicts").value
            == conflicts + 1
        )
        (root,) = [s for s in spans if s.name == "wormhole.reconfigure"]
        assert root.status == "error"
        (reserve,) = [s for s in spans if s.name == "wormhole.reserve"]
        assert reserve.status == "error"
        assert reserve.parent_id == root.span_id
        (conflict,) = [
            e for e in reserve.events if e.name == "wormhole.reserve.conflict"
        ]
        assert conflict.attrs["at"] == "cluster (0, 3)"
        # nothing was taken, so nothing changed hands
        assert fabric.cluster((0, 0)).owner == "P1"
        assert fabric.cluster((0, 2)).is_free

    def test_switch_conflict_names_the_switch(self, fabric, cfg):
        fabric.chain_switch((0, 2), (0, 1)).reserve("another worm")
        tracer = telemetry.enable_tracing()
        tracer.clear()
        try:
            with pytest.raises(AllocationConflictError):
                cfg.configure(path_region([(0, 0), (0, 1), (0, 2)]), "P1")
            spans = tracer.spans
        finally:
            telemetry.enable_tracing(False)
            tracer.clear()
        (reserve,) = [s for s in spans if s.name == "wormhole.reserve"]
        (conflict,) = [
            e for e in reserve.events if e.name == "wormhole.reserve.conflict"
        ]
        assert conflict.attrs["at"] == "switch (0, 1)-(0, 2)"
        assert conflict.attrs["flags_rolled_back"] == 1
        assert not fabric.chain_switch((0, 0), (0, 1)).is_reserved


_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))


@st.composite
def _regions(draw, rows=4, cols=4):
    """A random region of a ``rows`` x ``cols`` fabric: a rectangular
    ring, or a self-avoiding walk that skips the steps it cannot take."""
    if draw(st.booleans()):
        height, width = draw(st.integers(2, rows)), draw(st.integers(2, cols))
        origin = (
            draw(st.integers(0, rows - height)),
            draw(st.integers(0, cols - width)),
        )
        return ring_region(origin, height, width)
    path = [(draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)))]
    for dr, dc in draw(st.lists(st.sampled_from(_STEPS), max_size=10)):
        r, c = path[-1][0] + dr, path[-1][1] + dc
        if 0 <= r < rows and 0 <= c < cols and (r, c) not in path:
            path.append((r, c))
    return Region(tuple(path))


def _fabric_state(fabric):
    """Every switch's programming and reservation flag, every cluster's
    owner."""
    switches = [
        (s.endpoints, s.bidirectional, s.state, s.reserved_by)
        for s in fabric.all_switches()
    ]
    return switches, [(c.coord, c.owner) for c in fabric.clusters()]


def _twin(with_network):
    fabric = STopology(4, 4)
    network = RouterNetwork(4, 4) if with_network else None
    return fabric, WormholeConfigurator(fabric, network=network)


class TestOneWorm:
    """``reconfigure(old, new)`` and release-then-``configure(new)`` must
    program the same fabric, and a failed reconfigure leaves none of
    its own traces."""

    @settings(max_examples=150, deadline=None)
    @given(old=_regions(), new=_regions(), with_network=st.booleans())
    def test_delta_matches_release_then_configure(
        self, old, new, with_network
    ):
        fabric, cfg = _twin(with_network)
        twin_fabric, twin = _twin(with_network)
        cfg.configure(old, owner="P")
        cfg.reconfigure(old, new, owner="P")
        twin.configure(old, owner="P")
        twin.release(old, owner="P")
        twin.configure(new, owner="P")
        assert _fabric_state(fabric) == _fabric_state(twin_fabric)
        assert fabric.chained_component(new.path[0]) == set(new.path)

    @settings(max_examples=150, deadline=None)
    @given(old=_regions(), new=_regions(), with_network=st.booleans())
    def test_failed_reconfigure_leaves_the_fabric_as_it_was(
        self, old, new, with_network
    ):
        fabric, cfg = _twin(with_network)
        cfg.configure(old, owner="P")
        before = _fabric_state(fabric)
        cfg.faults = _OneShotFault()
        try:
            cfg.reconfigure(old, new, owner="P")
        except WORM_FAILURES:
            assert _fabric_state(fabric) == before
            if with_network:
                assert cfg.network.is_drained()
        else:
            # no fault reached the commit, or the worm survived it
            assert [c.coord for c in fabric.clusters() if c.owner] == sorted(
                new.path
            )
            assert not any(s.is_reserved for s in fabric.all_switches())


class TestLostInstruction:
    """A commit counts the chain instructions its worm applied: one lost
    instruction aborts it, even where the region's other edges still
    join its clusters into one chained component."""

    def test_ring_missing_one_edge_aborts(self):
        fabric, cfg = _twin(with_network=True)
        cfg.faults = _OneShotFault()
        with pytest.raises(RegionError, match="applied 3 of 4"):
            cfg.configure(ring_region((0, 0), 2, 2), owner="R")
        assert not any(
            s.is_chained or s.is_reserved for s in fabric.all_switches()
        )
        assert not any(c.owner for c in fabric.clusters())
        assert cfg.network.is_drained()

    def test_closing_a_path_into_a_ring_aborts(self):
        fabric, cfg = _twin(with_network=True)
        ring = ring_region((0, 0), 2, 2)
        path = path_region(ring.path)
        cfg.configure(path, owner="R")
        before = _fabric_state(fabric)
        cfg.faults = _OneShotFault()
        with pytest.raises(RegionError, match="applied 0 of 1"):
            cfg.reconfigure(path, ring, owner="R")
        # the path stays chained, its closing edge unchained, no flag set
        assert _fabric_state(fabric) == before
        assert not fabric.chain_switch(ring.path[-1], ring.path[0]).is_chained
        assert cfg.network.is_drained()

    def test_commit_walks_no_chained_component(self, monkeypatch):
        walks = []
        walk = STopology.chained_component

        def counted_walk(fabric, start):
            walks.append(start)
            return walk(fabric, start)

        monkeypatch.setattr(STopology, "chained_component", counted_walk)
        fabric, cfg = _twin(with_network=True)
        old = path_region([(0, 0), (0, 1)])
        cfg.configure(old, owner="P")
        cfg.reconfigure(old, path_region([(0, 0), (0, 1), (1, 1)]), owner="P")
        cfg.configure(ring_region((2, 0), 2, 2), owner="R")
        chip = VLSIProcessor(4, 4)
        chip.create_processor("S", 2)
        ScalingController(chip).up_scale("S", 2)
        assert walks == []


class TestSwitchLookups:
    """Host-independent guard: a worm looks each added edge's chain
    switch up once, for its reservation flag, the flag's release and
    the rollback; programming stores through no lookup."""

    @pytest.mark.parametrize("with_network", [False, True])
    def test_one_chain_switch_lookup_per_added_edge(
        self, monkeypatch, with_network
    ):
        lookups = []
        lookup = STopology.chain_switch

        def counted_lookup(fabric, a, b):
            lookups.append((a, b))
            return lookup(fabric, a, b)

        monkeypatch.setattr(STopology, "chain_switch", counted_lookup)
        fabric, cfg = _twin(with_network)
        ring = ring_region((0, 0), 3, 3)
        op = cfg.configure(ring, owner="R")
        assert len(lookups) <= op.switches_programmed == 8
        lookups.clear()
        op = cfg.reconfigure(ring, path_region(ring.path), owner="R")
        cfg.release(path_region(ring.path), owner="R")
        assert len(lookups) <= op.switches_programmed == 0
        cfg.faults = _OneShotFault()
        with pytest.raises(WORM_FAILURES):
            cfg.configure(ring, owner="R")
        assert len(lookups) <= len(ring.edges())
        assert not any(s.is_reserved for s in fabric.all_switches())
