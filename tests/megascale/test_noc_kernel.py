"""Express-vs-stepped identity for the closed-form worm schedule.

A solo worm on a drained, unobserved, fault-free network must produce —
through :meth:`RouterNetwork.deliver_express` — the exact
:class:`DeliveryRecord`, final ``cycle_count``, *and* telemetry registry
the cycle-stepped simulator produces, for every configuration the
schedule declares :attr:`WormSchedule.exact`.  Configurations it
declines (single-slot queues, multi-flit, multi-hop — whose stepped
timing depends on the router commit order) must raise instead of
guessing.
"""

import pytest

from repro import telemetry
from repro.errors import SimulationError
from repro.megascale.noc_kernel import WormSchedule, worm_schedule
from repro.noc.flit import make_packet
from repro.noc.network import RouterNetwork
from repro.telemetry.observe import Heatmap, Sampler


def _stepped(src, dst, n_flits, qcap):
    telemetry.reset()
    net = RouterNetwork(4, 4, queue_capacity=qcap)
    packet = make_packet(src, dst, n_flits=n_flits, packet_id=0)
    net.inject(packet)
    net.run_until_drained()
    return net.record_for(0), net.cycle_count, telemetry.snapshot()


def _express(src, dst, n_flits, qcap):
    telemetry.reset()
    net = RouterNetwork(4, 4, queue_capacity=qcap)
    packet = make_packet(src, dst, n_flits=n_flits, packet_id=0)
    record = net.deliver_express(packet)
    return record, net.cycle_count, telemetry.snapshot()


class TestScheduleMath:
    def test_pipelined_regime(self):
        s = worm_schedule((0, 0), (2, 3), n_flits=4, qcap=4)
        assert s.exact
        assert s.eject_step == 1
        assert s.delivered_at == 5 + 3
        assert s.drain_at == 9
        assert s.flit_moves == 4 * 6
        assert s.stalls == 0
        assert s.eject_offsets() == (5, 6, 7, 8)

    def test_single_flit_always_exact(self):
        s = worm_schedule((0, 0), (3, 3), n_flits=1, qcap=1)
        assert s.exact
        assert s.delivered_at == 6

    def test_zero_hop_always_exact(self):
        s = worm_schedule((1, 1), (1, 1), n_flits=3, qcap=1)
        assert s.exact
        assert s.eject_step == 1  # ejects straight from the source router

    def test_single_slot_multihop_not_exact(self):
        s = worm_schedule((0, 0), (0, 3), n_flits=2, qcap=1)
        assert not s.exact
        assert s.eject_step == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            worm_schedule((0, 0), (1, 1), n_flits=0, qcap=2)
        with pytest.raises(ValueError):
            worm_schedule((0, 0), (1, 1), n_flits=1, qcap=0)
        with pytest.raises(AttributeError):
            WormSchedule(1, 1, 1).new_attr = 1  # __slots__ stays closed


class TestExpressIdentity:
    # both route directions through the row-major commit order, plus a
    # zero-hop worm; qcap 1 appears only where the schedule is exact
    CASES = [
        ((0, 0), (2, 3), 3, 4),
        ((2, 3), (0, 0), 3, 4),
        ((0, 0), (3, 3), 5, 2),
        ((3, 3), (0, 0), 5, 2),
        ((1, 2), (1, 2), 2, 2),
        ((0, 1), (3, 2), 1, 1),
        ((3, 2), (0, 1), 1, 1),
        ((1, 1), (1, 1), 3, 1),
    ]

    @pytest.mark.parametrize("src,dst,n_flits,qcap", CASES)
    def test_bit_identical_to_stepping(self, src, dst, n_flits, qcap):
        expected = _stepped(src, dst, n_flits, qcap)
        got = _express(src, dst, n_flits, qcap)
        assert got == expected
        telemetry.reset()

    def test_non_exact_schedule_refused(self):
        net = RouterNetwork(4, 4, queue_capacity=1)
        packet = make_packet((0, 0), (0, 3), n_flits=2, packet_id=0)
        assert not net.express_eligible(packet)
        with pytest.raises(SimulationError):
            net.deliver_express(packet)

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
        drain = worm_schedule(self.SRC, self.DST, self.N_FLITS, self.QCAP).drain_at
        for express in (False, True):
            self._deliver(express, max_cycles=drain)
            with pytest.raises(SimulationError, match="cycle budget"):
                self._deliver(express, max_cycles=drain - 1)


class TestSampledExpressIdentity:
    """With a sampler attached, express delivery must reproduce the
    stepped run's buffer-depth heatmap *sample for sample* — the
    cross-validation :meth:`WormSchedule.queue_depths` promises.  The
    express path reports the schedule's synthetic depths through
    ``buffer_depths()``, so the whole observation surface (heatmap
    cells, samples taken, registry) is compared, not just deliveries.
    """

    @staticmethod
    def _run(deliver, src, dst, n_flits, qcap, stride):
        telemetry.reset()
        net = RouterNetwork(4, 4, queue_capacity=qcap)
        heatmap = Heatmap("noc.buffer_depth")
        sampler = Sampler(stride)
        sampler.attach_heatmap(heatmap, net.buffer_depths)
        net.sampler = sampler
        packet = make_packet(src, dst, n_flits=n_flits, packet_id=0)
        deliver(net, packet)
        return (
            net.record_for(0),
            net.cycle_count,
            heatmap.state(),
            sampler.samples_taken,
            telemetry.snapshot(),
        )

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("src,dst,n_flits,qcap", TestExpressIdentity.CASES)
    def test_bit_identical_to_stepping(self, src, dst, n_flits, qcap, stride):
        def stepped(net, packet):
            net.inject(packet)
            net.run_until_drained()

        def express(net, packet):
            net.deliver_express(packet)

        expected = self._run(stepped, src, dst, n_flits, qcap, stride)
        got = self._run(express, src, dst, n_flits, qcap, stride)
        assert got == expected
        telemetry.reset()
