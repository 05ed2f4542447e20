"""Unit and integration tests for the cycle-level router network."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError, SimulationError
from repro.faults import FaultInjector, FaultPlan
from repro.noc.flit import make_packet
from repro.noc.network import RouterNetwork
from repro.noc.router import Router
from repro.noc.traffic import neighbor_pairs, uniform_random_pairs
from repro.topology.metrics import manhattan


class TestInjection:
    def test_out_of_grid_endpoints_rejected(self):
        net = RouterNetwork(4, 4)
        with pytest.raises(RoutingError):
            net.inject(make_packet((0, 0), (4, 4)))

    def test_bad_dimensions(self):
        with pytest.raises(RoutingError):
            RouterNetwork(0, 4)


class TestSingleFlitDelivery:
    def test_latency_equals_hops(self):
        net = RouterNetwork(8, 8)
        p = make_packet((0, 0), (3, 4))
        net.inject(p)
        net.run_until_drained()
        rec = net.record_for(p.packet_id)
        assert rec is not None
        assert rec.latency == manhattan((0, 0), (3, 4))

    def test_self_delivery(self):
        net = RouterNetwork(4, 4)
        p = make_packet((1, 1), (1, 1))
        net.inject(p)
        net.run_until_drained()
        assert net.record_for(p.packet_id).latency <= 1

    def test_one_hop_per_cycle(self):
        # A flit must not cross several routers in one cycle regardless of
        # iteration order (east-going flits tempt row-major sweeps).
        net = RouterNetwork(1, 8)
        p = make_packet((0, 0), (0, 7))
        net.inject(p)
        net.run_until_drained()
        assert net.record_for(p.packet_id).latency >= 7


class TestWormDelivery:
    def test_worm_pipeline_latency(self):
        # n-flit worm over h hops: latency = h + (n-1).
        net = RouterNetwork(8, 8)
        p = make_packet((0, 0), (2, 2), payloads=list("abcd"))
        net.inject(p)
        net.run_until_drained()
        assert net.record_for(p.packet_id).latency == 4 + 3

    def test_worm_arrives_complete(self):
        net = RouterNetwork(4, 4)
        p = make_packet((0, 0), (3, 3), payloads=list(range(10)))
        net.inject(p)
        net.run_until_drained()
        rec = net.record_for(p.packet_id)
        assert rec.n_flits == 10


class TestManyPackets:
    def test_all_uniform_random_packets_delivered(self):
        net = RouterNetwork(8, 8)
        pairs = uniform_random_pairs(8, 8, 50, seed=3)
        pids = []
        for s, d in pairs:
            p = make_packet(s, d, payloads=[0, 1])
            net.inject(p)
            pids.append(p.packet_id)
        net.run_until_drained()
        assert len(net.delivered) == 50
        assert {r.packet_id for r in net.delivered} == set(pids)

    def test_neighbor_traffic_low_latency(self):
        net = RouterNetwork(8, 8)
        for s, d in neighbor_pairs(8, 8, 30, seed=5):
            net.inject(make_packet(s, d))
        net.run_until_drained()
        assert net.mean_latency() < 6  # one hop + contention slack

    def test_in_flight_accounting(self):
        net = RouterNetwork(4, 4)
        net.inject(make_packet((0, 0), (3, 3), payloads=[1, 2, 3]))
        assert net.in_flight() == 3
        net.run_until_drained()
        assert net.in_flight() == 0

    def test_drained_state(self):
        net = RouterNetwork(4, 4)
        assert net.is_drained()
        net.inject(make_packet((0, 0), (1, 1)))
        assert not net.is_drained()
        net.run_until_drained()
        assert net.is_drained()

    def test_mean_latency_empty(self):
        assert RouterNetwork(2, 2).mean_latency() == 0.0

    def test_record_for_unknown(self):
        assert RouterNetwork(2, 2).record_for(999_999) is None


class TestContention:
    def test_hotspot_serialises_but_completes(self):
        from repro.noc.traffic import hotspot_pairs

        net = RouterNetwork(4, 4)
        for s, d in hotspot_pairs(4, 4, 12, seed=7):
            net.inject(make_packet(s, d))
        net.run_until_drained()
        assert len(net.delivered) == 12
        # the hotspot's local port ejects one flit per cycle, so the run
        # takes at least as many cycles as packets
        assert net.cycle_count >= 12


def _send(net, packet, express):
    """Deliver ``packet`` by closed form or by stepping; returns its record."""
    if express:
        assert net.express_eligible(packet)
        return net.deliver_express(packet)
    net.inject(packet)
    net.run_until_drained()
    return net.record_for(packet.packet_id)


def _bookkeeping(net):
    return net._inject_time, net._arrived_flits, net._packet_meta


class TestPacketIds:
    @pytest.mark.parametrize("express", [False, True])
    def test_reused_id_is_recorded_again(self, express):
        net = RouterNetwork(4, 4)
        first = _send(
            net, make_packet((0, 0), (2, 2), payloads=[1, 2, 3], packet_id=7),
            express,
        )
        second_at = net.cycle_count
        second = _send(
            net, make_packet((0, 0), (1, 3), payloads=[1, 2, 3], packet_id=7),
            express,
        )
        assert [r.dst for r in net.delivered] == [(2, 2), (1, 3)]
        assert net.delivered == [first, second]
        assert net.record_for(7) == second
        # an n-flit worm over h hops on an idle mesh: h + (n - 1) cycles
        assert (first.injected_at, first.delivered_at) == (0, 4 + 2)
        assert second.injected_at == second_at
        assert second.delivered_at == second_at + 4 + 2

    @pytest.mark.parametrize("express", [False, True])
    def test_bookkeeping_empty_after_drain(self, express):
        net = RouterNetwork(4, 4)
        for pid, dst in enumerate([(3, 3), (0, 1), (2, 0)]):
            _send(net, make_packet((0, 0), dst, payloads=[0, 1], packet_id=pid),
                  express)
        assert len(net.delivered) == 3
        assert _bookkeeping(net) == ({}, {}, {})

    def test_bookkeeping_empty_after_purge(self):
        net = RouterNetwork(4, 4)
        for pid in range(3):
            net.inject(make_packet((0, pid), (3, 3), payloads=[0, 1, 2],
                                   packet_id=pid))
        for _ in range(3):
            net.step()
        assert net.purge() > 0
        assert _bookkeeping(net) == ({}, {}, {})
        assert net.in_flight() == 0 and net.is_drained()
        # the purged ids are free again
        _send(net, make_packet((0, 0), (3, 3), packet_id=0), False)
        assert net.record_for(0).dst == (3, 3)

    def test_id_in_flight_rejected(self):
        net = RouterNetwork(4, 4)
        net.inject(make_packet((0, 0), (3, 3), payloads=[0, 1], packet_id=7))
        again = make_packet((1, 1), (2, 2), packet_id=7)
        with pytest.raises(RoutingError, match="already in flight"):
            net.inject(again)
        with pytest.raises(RoutingError, match="already in flight"):
            net.deliver_express(again)
        assert net.in_flight() == 2
        net.run_until_drained()
        net.inject(again)  # delivered: the id may return
        net.run_until_drained()
        assert [r.dst for r in net.delivered] == [(3, 3), (2, 2)]


def _scanned_in_flight(net):
    return sum(r.queued_flits() for r in net.routers.values()) + sum(
        len(b) for b in net._inject_backlog.values()
    )


def _scanned_drained(net):
    return all(not b for b in net._inject_backlog.values()) and all(
        r.is_idle for r in net.routers.values()
    )


_coord = st.tuples(st.integers(0, 3), st.integers(0, 3))
_packet = st.tuples(_coord, _coord, st.integers(1, 5), st.integers(0, 1))
_action = st.one_of(
    st.tuples(st.just("inject"), _packet),
    st.tuples(st.just("express"), _packet),
    st.tuples(st.just("step"), st.none()),
    st.tuples(st.just("purge"), st.none()),
    st.tuples(st.just("drain"), st.integers(1, 40)),
)


class TestDrainCount:
    """The in-flight count that answers ``is_drained``/``in_flight`` must
    agree with a full scan of the routers and inject backlogs."""

    @settings(max_examples=200, deadline=None)
    @given(
        actions=st.lists(_action, max_size=30),
        capacity=st.integers(1, 4),
        n_vcs=st.integers(1, 2),
        fault_seed=st.none() | st.integers(0, 1_000),
    )
    def test_count_matches_scan(self, actions, capacity, n_vcs, fault_seed):
        faults = None
        if fault_seed is not None:
            faults = FaultInjector(FaultPlan(fault_seed, default_rate=0.1))
        net = RouterNetwork(4, 4, queue_capacity=capacity, n_vcs=n_vcs,
                            faults=faults)
        ids = itertools.count()
        for kind, arg in actions:
            if kind in ("inject", "express"):
                src, dst, n, vc = arg
                packet = make_packet(src, dst, payloads=list(range(n)),
                                     vc=vc % n_vcs, packet_id=next(ids))
                if kind == "inject":
                    net.inject(packet)
                elif net.express_eligible(packet):
                    net.deliver_express(packet)
            elif kind == "step":
                net.step()
            elif kind == "purge":
                net.purge()
            else:
                try:
                    net.run_until_drained(max_cycles=arg)
                except SimulationError:
                    net.purge()
            assert net.in_flight() == _scanned_in_flight(net)
            assert net.is_drained() == _scanned_drained(net)
            if net.is_drained():
                assert not any(r.locked_pairs() for r in net.routers.values())
                assert _bookkeeping(net) == ({}, {}, {})


class TestNoRouterScans:
    """Host-independent guard on the O(1) drain check: delivering worms
    reads no router's queued flits or idleness."""

    def test_worms_never_scan_routers(self, monkeypatch):
        reads = []
        is_idle, queued_flits = Router.is_idle, Router.queued_flits

        def counted_idle(router):
            reads.append("is_idle")
            return is_idle.fget(router)

        def counted_queued_flits(router):
            reads.append("queued_flits")
            return queued_flits(router)

        monkeypatch.setattr(Router, "is_idle", property(counted_idle))
        monkeypatch.setattr(Router, "queued_flits", counted_queued_flits)
        net = RouterNetwork(16, 16)
        for pid in range(50):
            packet = make_packet((0, 0), (pid % 16, 15 - pid % 16),
                                 payloads=[0, 1, 2], packet_id=pid)
            assert net.express_eligible(packet)
            net.deliver_express(packet)
        net.inject(make_packet((0, 0), (15, 15), payloads=[0, 1], packet_id=50))
        net.run_until_drained()
        assert len(net.delivered) == 51
        assert reads == []
