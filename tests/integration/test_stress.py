"""Stress and determinism tests at larger scales."""

from repro.ap.pipeline import AdaptiveProcessor
from repro.core.defects import DefectInjector
from repro.core.vlsi_processor import VLSIProcessor
from repro.csd.simulator import CSDSimulator
from repro.noc.flit import make_packet
from repro.noc.network import RouterNetwork
from repro.noc.traffic import uniform_random_pairs
from repro.workloads.generators import random_dag


class TestNetworkStress:
    def test_16x16_grid_500_packets(self):
        net = RouterNetwork(16, 16)
        pairs = uniform_random_pairs(16, 16, 500, seed=99)
        for s, d in pairs:
            net.inject(make_packet(s, d, payloads=[0, 1, 2]))
        cycles = net.run_until_drained(max_cycles=50_000)
        assert len(net.delivered) == 500
        assert cycles < 5_000  # sanity bound: no pathological serialisation

    def test_tiny_queues_still_drain(self):
        # queue capacity 1: maximal backpressure, wormholes must still
        # make progress (XY on a mesh is deadlock-free)
        net = RouterNetwork(6, 6, queue_capacity=1)
        for s, d in uniform_random_pairs(6, 6, 60, seed=5):
            net.inject(make_packet(s, d, payloads=[0, 1]))
        net.run_until_drained(max_cycles=50_000)
        assert len(net.delivered) == 60

    def test_deterministic_given_seed(self):
        def run():
            net = RouterNetwork(8, 8)
            for s, d in uniform_random_pairs(8, 8, 100, seed=11):
                net.inject(make_packet(s, d, payloads=[0, 1]))
            net.run_until_drained()
            return sorted((r.src, r.dst, r.latency) for r in net.delivered)

        assert run() == run()


class TestChipStress:
    def test_16x16_chip_full_tenancy(self):
        chip = VLSIProcessor(16, 16, with_network=False)
        for i in range(64):
            chip.create_processor(f"t{i}", n_clusters=4)
        assert chip.free_clusters() == 0
        assert chip.utilization() == 1.0
        for i in range(0, 64, 2):
            chip.destroy_processor(f"t{i}")
        assert chip.free_clusters() == 128

    def test_heavy_defect_attrition_stays_consistent(self):
        chip = VLSIProcessor(8, 8, with_network=False)
        for i in range(8):
            chip.create_processor(f"p{i}", n_clusters=4)
        injector = DefectInjector(chip, seed=21)
        injector.inject_random(40)
        # invariants survive heavy attrition
        assert injector.defective_count() == 40
        assert injector.surviving_capacity() == 24
        for proc in chip.processors.values():
            for coord in proc.region.path:
                cluster = chip.fabric.cluster(coord)
                assert cluster.owner == proc.name
                assert not cluster.defective


class TestPipelineStress:
    def test_large_datapath_configuration(self):
        app = random_dag(200, locality=0.5, seed=77)
        ap = AdaptiveProcessor(
            capacity=256,
            library=app.to_library(),
            n_channels=256,
            wsrf_capacity=512,
        )
        stats = ap.run(app.to_config_stream())
        assert stats.elements == 200
        assert stats.misses == 200
        # one physical chain per distinct (source, sink) pair (a binary
        # op with equal operands shares one chain)
        distinct_edges = {(s, n.node_id) for n in app for s in n.sources}
        assert stats.connections == len(distinct_edges)

    def test_repeated_reconfiguration_is_stable(self):
        app = random_dag(30, locality=0.8, seed=3)
        ap = AdaptiveProcessor(
            capacity=64, library=app.to_library(), wsrf_capacity=128
        )
        stream = app.to_config_stream()
        first = ap.run(stream)
        results = [ap.run(stream) for _ in range(5)]
        for stats in results:
            assert stats.misses == 0
            assert stats.total_cycles == results[0].total_cycles


class TestSimulatorStress:
    def test_figure3_largest_size_reproducible(self):
        a = CSDSimulator(256, seed=1).run_trial(0.0)
        b = CSDSimulator(256, seed=1).run_trial(0.0)
        assert a == b
        assert a.used_channels < 128  # the N/2 claim at the largest N
