"""Unit tests for payload-applied configuration worms (section 3.3).

With a router network attached, the worm's body flits each carry one
chain instruction and the switches are programmed *by the delivered
flits*, not by a side channel — "store the appropriate configuration
data to the appropriate programmable switch with a wormhole
reconfiguration".
"""

from repro.noc.flit import make_packet
from repro.noc.network import RouterNetwork
from repro.noc.wormhole import WormholeConfigurator
from repro.topology.regions import rectangle_region
from repro.topology.rings import ring_region
from repro.topology.s_topology import STopology


class TestOnDeliverHook:
    def test_hook_sees_every_flit(self):
        seen = []
        net = RouterNetwork(4, 4, on_deliver=seen.append)
        p = make_packet((0, 0), (2, 2), payloads=["a", "b", "c"])
        net.inject(p)
        net.run_until_drained()
        assert [f.payload for f in seen] == ["a", "b", "c"]

    def test_hook_optional(self):
        net = RouterNetwork(2, 2)
        net.inject(make_packet((0, 0), (1, 1)))
        net.run_until_drained()  # no hook: plain delivery


class TestPayloadProgrammedWorms:
    def test_switches_programmed_by_flits(self):
        fabric = STopology(6, 6)
        net = RouterNetwork(6, 6)
        cfg = WormholeConfigurator(fabric, network=net)
        region = rectangle_region((2, 2), 2, 3)
        op = cfg.configure(region, owner="P")
        # one chain instruction per region edge, all applied
        assert op.switches_programmed == len(region.path) - 1
        assert fabric.chained_component((2, 2)) == set(region.path)

    def test_worm_length_matches_instruction_count(self):
        fabric = STopology(6, 6)
        net = RouterNetwork(6, 6)
        cfg = WormholeConfigurator(fabric, network=net)
        region = rectangle_region((0, 1), 1, 4)  # 3 edges
        op = cfg.configure(region, owner="P")
        # worm: 3 payload flits over 1 hop -> latency >= 3
        assert op.config_cycles >= 3
        assert op.switches_programmed == 3

    def test_ring_worm_closes_the_ring(self):
        fabric = STopology(6, 6)
        cfg = WormholeConfigurator(fabric, network=RouterNetwork(6, 6))
        region = ring_region((1, 1), 3, 3)
        op = cfg.configure(region, owner="R")
        assert op.switches_programmed == len(region.path)
        assert fabric.chain_switch(region.path[-1], region.path[0]).is_chained

    def test_single_cluster_worm(self):
        fabric = STopology(4, 4)
        cfg = WormholeConfigurator(fabric, network=RouterNetwork(4, 4))
        region = rectangle_region((3, 3), 1, 1)
        op = cfg.configure(region, owner="S")
        assert op.switches_programmed == 0
        assert fabric.cluster((3, 3)).owner == "S"

    def test_hook_restored_after_worm(self):
        fabric = STopology(4, 4)
        sentinel = []
        hook = sentinel.append
        net = RouterNetwork(4, 4, on_deliver=hook)
        cfg = WormholeConfigurator(fabric, network=net)
        cfg.configure(rectangle_region((0, 0), 1, 2), owner="P")
        assert net.on_deliver is hook  # the worm's hook is gone
