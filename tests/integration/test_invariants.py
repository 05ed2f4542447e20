"""Property-based invariants across module boundaries (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scaling import ScalingController
from repro.core.vlsi_processor import VLSIProcessor
from repro.errors import ReproError
from repro.noc.flit import make_packet
from repro.noc.network import RouterNetwork
from repro.topology.folding import fold_mask


class TestFlitConservation:
    """Every injected flit is delivered exactly once, whatever the load."""

    @settings(max_examples=20, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.tuples(st.integers(0, 5), st.integers(0, 5)),
                st.tuples(st.integers(0, 5), st.integers(0, 5)),
                st.integers(1, 6),  # flits per packet
            ),
            min_size=1,
            max_size=25,
        ),
        n_vcs=st.integers(1, 3),
    )
    def test_conservation(self, pairs, n_vcs):
        net = RouterNetwork(6, 6, n_vcs=n_vcs)
        pids = []
        total_flits = 0
        for i, (src, dst, n) in enumerate(pairs):
            p = make_packet(src, dst, payloads=list(range(n)), vc=i % n_vcs)
            net.inject(p)
            pids.append(p.packet_id)
            total_flits += n
        net.run_until_drained()
        assert sorted(r.packet_id for r in net.delivered) == sorted(pids)
        assert sum(r.n_flits for r in net.delivered) == total_flits
        assert net.in_flight() == 0

    @settings(max_examples=15, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.tuples(st.integers(0, 4), st.integers(0, 4)),
                st.tuples(st.integers(0, 4), st.integers(0, 4)),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_latency_never_below_distance(self, pairs):
        net = RouterNetwork(5, 5)
        for src, dst in pairs:
            net.inject(make_packet(src, dst))
        net.run_until_drained()
        for rec in net.delivered:
            assert rec.latency >= rec.hops


# -- chip-level ownership invariants --------------------------------------

op_strategy = st.lists(
    st.sampled_from(["create", "destroy", "up", "down"]),
    min_size=1,
    max_size=30,
)


class TestOwnershipPartition:
    """After any operation sequence: every cluster has at most one owner,
    owners match the processors' regions exactly, chained components
    never span two processors, freed clusters are really free, and the
    fabric's free mask is the die minus the owned and defective ones."""

    @settings(max_examples=25, deadline=None)
    @given(ops=op_strategy, seed=st.integers(0, 10_000))
    def test_partition_invariant(self, ops, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        chip = VLSIProcessor(6, 6, with_network=False)
        scaler = ScalingController(chip)
        counter = 0
        for op in ops:
            names = list(chip.processors)
            try:
                if op == "create":
                    counter += 1
                    chip.create_processor(f"p{counter}", n_clusters=int(rng.integers(1, 5)))
                elif op == "destroy" and names:
                    chip.destroy_processor(names[int(rng.integers(len(names)))])
                elif op == "up" and names:
                    scaler.up_scale(names[int(rng.integers(len(names)))], 1)
                elif op == "down" and names:
                    name = names[int(rng.integers(len(names)))]
                    if chip.processor(name).n_clusters > 1:
                        scaler.down_scale(name, 1)
            except ReproError:
                pass  # legitimate rejection (no room, etc.)
            self._check(chip)

    @staticmethod
    def _check(chip: VLSIProcessor) -> None:
        owned = {}
        for proc in chip.processors.values():
            for coord in proc.region.path:
                assert coord not in owned, f"{coord} owned twice"
                owned[coord] = proc.name
        for cluster in chip.fabric.clusters():
            expected = owned.get(cluster.coord)
            assert cluster.owner == expected
        # chained components stay within one processor
        for proc in chip.processors.values():
            component = chip.fabric.chained_component(proc.region.path[0])
            assert component <= set(proc.region.path)
        # accounting
        assert chip.free_clusters() == len(chip.fabric) - len(owned)
        # the free mask every fold-run query reads is exactly the die
        # minus the owned and the defective clusters
        fabric = chip.fabric
        taken = fold_mask(fabric.fold, owned) | fold_mask(
            fabric.fold, (cl.coord for cl in fabric.clusters() if cl.defective)
        )
        assert fabric.free_mask() == ((1 << len(fabric)) - 1) & ~taken
