"""Unit tests for fabric defragmentation (section 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import ClusterAllocator
from repro.core.defrag import Defragmenter
from repro.core.vlsi_processor import VLSIProcessor
from repro.errors import FaultInjectionError, RegionError
from repro.planner import MinimalPlanner
from repro.topology.folding import first_run, fold_mask, serpentine_unfold
from repro.topology.regions import path_region
from repro.topology.rings import ring_region
from repro.topology.s_topology import STopology


def fragmented_chip():
    """16 4-cluster processors fill an 8x8 chip; every other one freed."""
    chip = VLSIProcessor(8, 8, with_network=False)
    for i in range(16):
        chip.create_processor(f"S{i}", n_clusters=4)
    for i in range(0, 16, 2):
        chip.destroy_processor(f"S{i}")
    return chip


class TestFragmentationMetric:
    def test_empty_chip_not_fragmented(self):
        chip = VLSIProcessor(4, 4, with_network=False)
        assert Defragmenter(chip).fragmentation() == 0.0

    def test_full_chip_not_fragmented(self):
        chip = VLSIProcessor(4, 4, with_network=False)
        chip.create_processor("A", n_clusters=16)
        assert Defragmenter(chip).fragmentation() == 0.0

    def test_checkerboard_is_fragmented(self):
        chip = fragmented_chip()
        defrag = Defragmenter(chip)
        assert defrag.fragmentation() > 0.5


class TestCompaction:
    def test_compact_coalesces_free_space(self):
        chip = fragmented_chip()
        defrag = Defragmenter(chip)
        with pytest.raises(RegionError):
            chip.create_processor("BIG", n_clusters=32)
        moves = defrag.compact_until_stable()
        assert moves  # something moved
        assert defrag.fragmentation() == 0.0
        chip.create_processor("BIG", n_clusters=32)  # now fits

    def test_processors_survive_compaction(self):
        chip = fragmented_chip()
        before = {n: p.n_clusters for n, p in chip.processors.items()}
        Defragmenter(chip).compact_until_stable()
        after = {n: p.n_clusters for n, p in chip.processors.items()}
        assert before == after
        # regions are intact chained components
        for proc in chip.processors.values():
            assert chip.fabric.chained_component(proc.region.path[0]) == set(
                proc.region.path
            )

    def test_mailbox_contents_move_with_processor(self):
        chip = fragmented_chip()
        target = next(iter(chip.processors))
        chip.processor(target).mailbox.deliver("ext", "k", 42)
        Defragmenter(chip).compact_until_stable()
        assert chip.processor(target).mailbox.read("k") == 42

    def test_active_processors_stay_put(self):
        chip = fragmented_chip()
        pinned = "S7"
        old_region = chip.processor(pinned).region
        chip.activate(pinned)
        Defragmenter(chip).compact_until_stable()
        assert chip.processor(pinned).region == old_region

    def test_stable_chip_no_moves(self):
        chip = VLSIProcessor(4, 4, with_network=False)
        chip.create_processor("A", n_clusters=4)
        assert Defragmenter(chip).compact_until_stable(max_passes=1) == []

    def test_idempotent(self):
        chip = fragmented_chip()
        defrag = Defragmenter(chip)
        defrag.compact_until_stable()
        assert defrag.compact_until_stable(max_passes=1) == []

    @pytest.mark.parametrize("planner", [
        None, MinimalPlanner(mode="greedy"), MinimalPlanner(mode="exact"),
    ], ids=["legacy", "greedy", "exact"])
    def test_ring_stays_a_ring_in_place(self, planner):
        # a fold run is a straight chain: moving the ring onto one would
        # drop its closing edge, so it stays put like an ACTIVE processor
        chip = VLSIProcessor(4, 4, with_network=False)
        chip.create_processor("a", n_clusters=8)
        ring = chip.create_processor(
            "r", region=ring_region((2, 0), 2, 2)
        ).region
        chip.destroy_processor("a")
        Defragmenter(chip, planner=planner).compact_until_stable()
        assert chip.processor("r").region == ring
        last, first = ring.path[-1], ring.path[0]
        assert chip.fabric.chain_switch(last, first).is_chained
        assert chip.fabric.shift_switch(last, first).is_chained
        assert chip.fabric.chained_component(first) == set(ring.path)


class _OneShotFault:
    """Fault injector that fails exactly one switch programming."""

    def __init__(self):
        self.fired = False

    def chain_switch_fault(self, a, b):
        if not self.fired:
            self.fired = True
            return True
        return False


class TestMoveRollback:
    """A move that fails mid-reconfigure must never leave a processor
    regionless — the old region is configured straight back."""

    def test_failed_move_restores_the_old_region(self):
        chip = fragmented_chip()
        before = {n: p.region for n, p in chip.processors.items()}
        chip.configurator.faults = _OneShotFault()
        with pytest.raises(FaultInjectionError):
            Defragmenter(chip).compact_until_stable(max_passes=1)
        assert {n: p.region for n, p in chip.processors.items()} == before
        # ownership and chaining are fully restored too
        for proc in chip.processors.values():
            assert chip.fabric.chained_component(proc.region.path[0]) == set(
                proc.region.path
            )
            for coord in proc.region.path:
                assert chip.fabric.cluster(coord).owner == proc.name

    def test_failed_putback_restores_the_region(self):
        # the head processor has nowhere earlier to go: its visit is a
        # put-back, and the re-configure is the worm the fault hits
        chip = VLSIProcessor(4, 4, with_network=False)
        region = chip.create_processor("A", n_clusters=4).region
        chip.configurator.faults = _OneShotFault()
        with pytest.raises(FaultInjectionError):
            Defragmenter(chip).compact_until_stable()
        assert chip.processor("A").region == region
        assert chip.fabric.chained_component(region.path[0]) == set(
            region.path
        )
        for coord in region.path:
            assert chip.fabric.cluster(coord).owner == "A"
        assert chip.allocator.free_count() == 12

    def test_compaction_succeeds_once_the_fault_clears(self):
        chip = fragmented_chip()
        chip.configurator.faults = _OneShotFault()
        defrag = Defragmenter(chip)
        with pytest.raises(FaultInjectionError):
            defrag.compact_until_stable(max_passes=1)
        # the one-shot fault is consumed: the retry compacts fully
        defrag.compact_until_stable()
        assert defrag.fragmentation() == 0.0


class TestVisitOrder:
    """Processors are visited by the fold index of their *current* first
    cluster, re-derived every iteration — never a stale pre-pass sort."""

    def test_moves_follow_fold_order_within_a_pass(self):
        chip = fragmented_chip()
        defrag = Defragmenter(chip)
        moves = defrag.compact_until_stable(max_passes=1)
        cols = chip.fabric.cols
        starts = [serpentine_unfold(m.old_start, cols) for m in moves]
        assert starts == sorted(starts)

    def test_compaction_reaches_a_fixpoint(self):
        chip = fragmented_chip()
        defrag = Defragmenter(chip)
        defrag.compact_until_stable()
        # per-iteration key derivation and the fixpoint agree: another
        # pass finds every processor already at its earliest run
        assert defrag.compact_until_stable(max_passes=1) == []
        assert defrag.fragmentation() == 0.0


class TestFirstRun:
    """A free mask built here from the cluster states, searched with
    :func:`first_run`, picks exactly the run the live allocator returns
    from the fabric's own :meth:`STopology.free_mask`."""

    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        states=st.lists(
            st.sampled_from(("free", "owned", "defective")),
            min_size=25, max_size=25,
        ),
        n=st.integers(1, 26),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_find_serpentine(self, rows, cols, states, n):
        fabric = STopology(rows, cols)
        order = fabric.linear_order()
        for coord, state in zip(order, states):
            if state == "owned":
                fabric.cluster(coord).allocate("x")
            elif state == "defective":
                fabric.cluster(coord).mark_defective()
        fold = {coord: index for index, coord in enumerate(order)}
        free = fold_mask(
            fold, (coord for coord in order if fabric.cluster(coord).is_free)
        )
        at = first_run(free, n)
        expected = ClusterAllocator(fabric).find_serpentine(n)
        if expected is None:
            assert at is None
        else:
            assert path_region(order[at:at + n]) == expected
