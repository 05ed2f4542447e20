"""Express-vs-stepped identity for solo worms, checked exhaustively.

A solo worm on a drained, unobserved, fault-free network must produce —
through :meth:`RouterNetwork.deliver_express` — the exact
:class:`DeliveryRecord`, final ``cycle_count`` *and* telemetry registry
the cycle-stepped simulator produces, for every configuration
:meth:`RouterNetwork.express_eligible` accepts.  It declines exactly the
single-slot, multi-flit, multi-hop worms, whose stepped timing depends
on the router commit order, and ``deliver_express`` refuses them instead
of guessing.  The configurations are every (src, dst) pair of a 4x4 grid
× one to three flits × queue capacities 1, 2 and 4: 2,304 in all, run
one source router per test case, plus two five-flit corner-to-corner
worms, longer than both their queue and the grid's three-flit bound.
"""

import pytest

from repro import telemetry
from repro.errors import SimulationError
from repro.noc.flit import make_packet
from repro.noc.network import RouterNetwork
from repro.telemetry.observe import Heatmap, Sampler
from repro.topology.metrics import manhattan

GRID = 4
QCAPS = (1, 2, 4)
_COORDS = [(r, c) for r in range(GRID) for c in range(GRID)]
CONFIGS = [
    (src, dst, n_flits, qcap)
    for src in _COORDS
    for dst in _COORDS
    for n_flits in (1, 2, 3)
    for qcap in QCAPS
]


def _packet(src, dst, n_flits):
    return make_packet(src, dst, n_flits=n_flits, packet_id=0)


def _split():
    """:data:`CONFIGS` split by ``express_eligible`` into accepted and
    declined, in order."""
    nets = {qcap: RouterNetwork(GRID, GRID, queue_capacity=qcap)
            for qcap in QCAPS}
    split = ([], [])
    for src, dst, n_flits, qcap in CONFIGS:
        eligible = nets[qcap].express_eligible(_packet(src, dst, n_flits))
        split[0 if eligible else 1].append((src, dst, n_flits, qcap))
    return split


ACCEPTED, DECLINED = _split()
_BY_SOURCE = pytest.mark.parametrize(
    "source", _COORDS, ids=lambda coord: f"r{coord[0]}c{coord[1]}"
)
_LONG_WORMS = pytest.mark.parametrize(
    "config",
    [((0, 0), (3, 3), 5, 2), ((3, 3), (0, 0), 5, 2)],
    ids=["r0c0-r3c3", "r3c3-r0c0"],
)


def _accepted_from(source):
    return [config for config in ACCEPTED if config[0] == source]


def _stepped(src, dst, n_flits, qcap):
    telemetry.reset()
    net = RouterNetwork(GRID, GRID, queue_capacity=qcap)
    net.inject(_packet(src, dst, n_flits))
    net.run_until_drained()
    return net.record_for(0), net.cycle_count, telemetry.snapshot()


def _express(src, dst, n_flits, qcap):
    telemetry.reset()
    net = RouterNetwork(GRID, GRID, queue_capacity=qcap)
    record = net.deliver_express(_packet(src, dst, n_flits))
    return record, net.cycle_count, telemetry.snapshot()


class TestExpressIdentity:
    @_BY_SOURCE
    def test_every_accepted_worm_matches_stepping(self, source):
        for config in _accepted_from(source):
            assert _express(*config) == _stepped(*config), config
        telemetry.reset()

    @_LONG_WORMS
    def test_long_worm_matches_stepping(self, config):
        assert _express(*config) == _stepped(*config)
        telemetry.reset()

    def test_declines_exactly_single_slot_multi_flit_multi_hop(self):
        assert DECLINED == [
            (src, dst, n_flits, qcap) for src, dst, n_flits, qcap in CONFIGS
            if qcap == 1 and n_flits > 1 and src != dst
        ]
        assert (len(ACCEPTED), len(DECLINED)) == (1824, 480)
        waits = 0
        for src, dst, n_flits, qcap in DECLINED:
            net = RouterNetwork(GRID, GRID, queue_capacity=qcap)
            with pytest.raises(SimulationError, match="stepping"):
                net.deliver_express(_packet(src, dst, n_flits))
            net.inject(_packet(src, dst, n_flits))
            net.run_until_drained()
            # why they step: a route with a hop toward a higher row-major
            # coordinate waits a cycle per body flit, the others pipeline
            late = net.record_for(0).latency - manhattan(src, dst)
            rises = dst[0] > src[0] or dst[1] > src[1]
            assert late == (2 if rises else 1) * (n_flits - 1), (src, dst)
            waits += rises
        assert waits == 312
        telemetry.reset()

    def test_busy_network_not_eligible(self):
        net = RouterNetwork(4, 4)
        net.inject(make_packet((0, 0), (3, 3), n_flits=2, packet_id=0))
        assert not net.express_eligible()
        net.run_until_drained()
        assert net.express_eligible()

    def test_traced_network_not_eligible(self):
        net = RouterNetwork(4, 4)
        telemetry.enable_tracing(True)
        try:
            assert not net.express_eligible()
        finally:
            telemetry.enable_tracing(False)
        assert net.express_eligible()


class TestCycleBudget:
    """``max_cycles`` budgets one delivery, not the network's lifetime:
    a network whose clock is already past the default budget still
    delivers, and stepped and express delivery trip at the same cycle."""

    SRC, DST, N_FLITS, QCAP = (0, 0), (0, 3), 3, 4

    def _deliver(self, express, max_cycles=100_000):
        net = RouterNetwork(4, 4, queue_capacity=self.QCAP)
        net.cycle_count = 100_001
        packet = make_packet(self.SRC, self.DST, n_flits=self.N_FLITS, packet_id=0)
        if express:
            net.deliver_express(packet, max_cycles=max_cycles)
        else:
            net.inject(packet)
            net.run_until_drained(max_cycles=max_cycles)
        return net.record_for(0), net.cycle_count

    def test_aged_network_still_delivers_identically(self):
        stepped = self._deliver(express=False)
        assert self._deliver(express=True) == stepped
        assert stepped[0].injected_at == 100_001

    def test_over_budget_delivery_still_raises_at_the_same_point(self):
        drain = manhattan(self.SRC, self.DST) + self.N_FLITS
        for express in (False, True):
            self._deliver(express, max_cycles=drain)
            with pytest.raises(SimulationError, match="cycle budget"):
                self._deliver(express, max_cycles=drain - 1)


class TestSampledNetworkSteps:
    """A sampler reads the live queues after every step, so a sampled
    network is never express-eligible: its worms step (the heatmap is
    the stepped run's by construction) and arrive exactly when express
    delivery lands them on an unsampled network."""

    @staticmethod
    def _check(src, dst, n_flits, qcap):
        telemetry.reset()
        net = RouterNetwork(GRID, GRID, queue_capacity=qcap)
        sampler = Sampler(1)
        sampler.attach_heatmap(Heatmap("noc.buffer_depth"), net.buffer_depths)
        net.sampler = sampler
        packet = _packet(src, dst, n_flits)
        assert not net.express_eligible()
        assert not net.express_eligible(packet)
        net.inject(packet)
        net.run_until_drained()
        record, cycles, _ = _express(src, dst, n_flits, qcap)
        assert (net.record_for(0), net.cycle_count) == (record, cycles)
        assert sampler.samples_taken == cycles

    @_BY_SOURCE
    def test_sampled_worm_steps(self, source):
        for config in _accepted_from(source):
            self._check(*config)
        telemetry.reset()

    @_LONG_WORMS
    def test_sampled_long_worm_steps(self, config):
        self._check(*config)
        telemetry.reset()
