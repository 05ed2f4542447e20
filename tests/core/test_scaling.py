"""Unit tests for up-/down-scaling, fusion and splitting (section 3.3)."""

import pytest

from repro.errors import ConfigurationError, RegionError, StateTransitionError
from repro.core.scaling import ScalingController
from repro.core.vlsi_processor import VLSIProcessor
from repro.topology.regions import path_region
from repro.topology.rings import ring_region


@pytest.fixture
def chip():
    return VLSIProcessor(8, 8, with_network=False)


@pytest.fixture
def scaler(chip):
    return ScalingController(chip)


class TestUpScale:
    def test_grows_region_and_chains_junction(self, chip, scaler):
        chip.create_processor("A", n_clusters=3)
        scaler.up_scale("A", 2)
        p = chip.processor("A")
        assert p.n_clusters == 5
        # the whole region is one chained component
        assert chip.fabric.chained_component(p.region.path[0]) == set(p.region.path)

    def test_ownership_transferred(self, chip, scaler):
        chip.create_processor("A", n_clusters=2)
        scaler.up_scale("A", 2)
        for coord in chip.processor("A").region.path:
            assert chip.fabric.cluster(coord).owner == "A"

    def test_active_processor_cannot_scale(self, chip, scaler):
        chip.create_processor("A", n_clusters=2)
        chip.activate("A")
        with pytest.raises(StateTransitionError):
            scaler.up_scale("A", 1)

    def test_no_room_raises(self, chip, scaler):
        chip.create_processor("A", n_clusters=62)
        chip.create_processor("B", n_clusters=2)
        with pytest.raises(RegionError):
            scaler.up_scale("B", 1)

    def test_extension_navigates_around_obstacles(self, chip, scaler):
        # box A in with occupied clusters except one winding corridor
        chip.create_processor("A", region=path_region([(0, 0)]))
        chip.create_processor("X", region=path_region([(0, 1), (0, 2)]))
        scaler.up_scale("A", 3)  # must go south then wander
        p = chip.processor("A")
        assert p.n_clusters == 4
        assert (0, 1) not in p.region.clusters

    def test_zero_extra_rejected(self, chip, scaler):
        chip.create_processor("A")
        with pytest.raises(ValueError):
            scaler.up_scale("A", 0)


class TestDownScale:
    def test_drops_tail_clusters(self, chip, scaler):
        chip.create_processor("A", n_clusters=5)
        tail = chip.processor("A").region.path[-2:]
        scaler.down_scale("A", 2)
        assert chip.processor("A").n_clusters == 3
        for coord in tail:
            assert chip.fabric.cluster(coord).is_free

    def test_junction_unchained(self, chip, scaler):
        chip.create_processor("A", n_clusters=4)
        p = chip.processor("A")
        keep_tail, drop_head = p.region.path[1], p.region.path[2]
        scaler.down_scale("A", 2)
        assert not chip.fabric.chain_switch(keep_tail, drop_head).is_chained

    def test_cannot_drop_everything(self, chip, scaler):
        chip.create_processor("A", n_clusters=2)
        with pytest.raises(RegionError):
            scaler.down_scale("A", 2)

    def test_freed_clusters_reusable(self, chip, scaler):
        chip.create_processor("A", n_clusters=6)
        scaler.down_scale("A", 4)
        chip.create_processor("B", n_clusters=4)  # fits in the freed space


class TestFuse:
    def test_adjacent_processors_fuse(self, chip, scaler):
        chip.create_processor("A", region=path_region([(0, 0), (0, 1)]))
        chip.create_processor("B", region=path_region([(0, 2), (0, 3)]))
        fused = scaler.fuse("A", "B")
        assert fused.name == "A"
        assert fused.n_clusters == 4
        assert "B" not in chip.processors
        assert chip.fabric.chained_component((0, 0)) == set(fused.region.path)

    def test_fused_name_override(self, chip, scaler):
        chip.create_processor("A", region=path_region([(0, 0), (0, 1)]))
        chip.create_processor("B", region=path_region([(0, 2)]))
        fused = scaler.fuse("A", "B", fused_name="AB")
        assert fused.name == "AB"
        assert chip.fabric.cluster((0, 0)).owner == "AB"

    def test_non_adjacent_rejected(self, chip, scaler):
        chip.create_processor("A", region=path_region([(0, 0)]))
        chip.create_processor("B", region=path_region([(0, 2)]))
        with pytest.raises(RegionError):
            scaler.fuse("A", "B")

    def test_fuse_requires_inactive(self, chip, scaler):
        chip.create_processor("A", region=path_region([(0, 0)]))
        chip.create_processor("B", region=path_region([(0, 1)]))
        chip.activate("A")
        with pytest.raises(StateTransitionError):
            scaler.fuse("A", "B")


class TestSplit:
    def test_split_into_two(self, chip, scaler):
        chip.create_processor("A", n_clusters=4)
        head, tail = scaler.split("A", 2, "H", "T")
        assert head.n_clusters == 2 and tail.n_clusters == 2
        assert "A" not in chip.processors
        assert chip.fabric.chained_component(head.region.path[0]) == set(
            head.region.path
        )

    def test_split_point_validated(self, chip, scaler):
        chip.create_processor("A", n_clusters=3)
        with pytest.raises(RegionError):
            scaler.split("A", 0, "H", "T")
        with pytest.raises(RegionError):
            scaler.split("A", 3, "H", "T")

    def test_duplicate_half_names_rejected(self, chip, scaler):
        chip.create_processor("A", n_clusters=2)
        with pytest.raises(ConfigurationError):
            scaler.split("A", 1, "H", "H")

    def test_name_collision_rejected(self, chip, scaler):
        chip.create_processor("A", n_clusters=2)
        chip.create_processor("C", n_clusters=1)
        with pytest.raises(ConfigurationError):
            scaler.split("A", 1, "C", "T")

    def test_intro_defect_scenario(self, chip, scaler):
        """Section 1: four APs; one fails; the remaining pair can fuse
        into a medium-scale processor or split into small ones."""
        aps = {}
        for i in range(4):
            aps[i] = chip.create_processor(
                f"AP{i}", region=path_region([(0, 2 * i), (0, 2 * i + 1)])
            )
        # AP1 "fails": remove it
        chip.destroy_processor("AP1")
        # AP2 and AP3 fuse into a medium-scale processor
        fused = scaler.fuse("AP2", "AP3", fused_name="MED")
        assert fused.n_clusters == 4
        # split it back into two small-scale processors
        h, t = scaler.split("MED", 2, "S1", "S2")
        assert h.n_clusters == t.n_clusters == 2


def fabric_state(chip):
    """Every switch's programming, every cluster's owner, every region."""
    fabric = chip.fabric
    return (
        [(s.endpoints, s.state, s.reserved_by) for s in fabric.all_switches()],
        [(c.coord, c.owner) for c in fabric.clusters()],
        {name: p.region for name, p in chip.processors.items()},
    )


class TestRings:
    """A Figure 5 ring is refused before the fabric is touched: every
    operation rewires a chain end or a junction, which would leave the
    ring's closing edge chained to a cluster it no longer joins."""

    @staticmethod
    def assert_refused(chip, operation):
        before = fabric_state(chip)
        with pytest.raises(RegionError, match="ring"):
            operation()
        assert fabric_state(chip) == before

    def test_up_scale_refused(self, chip, scaler):
        chip.create_processor("r", region=ring_region((0, 0), 2, 2))
        self.assert_refused(chip, lambda: scaler.up_scale("r", 2))

    def test_down_scale_refused(self, chip, scaler):
        chip.create_processor("r", region=ring_region((0, 0), 2, 3))
        self.assert_refused(chip, lambda: scaler.down_scale("r", 2))

    def test_fuse_refused_on_either_side(self, chip, scaler):
        chip.create_processor("r", region=ring_region((1, 1), 2, 2))
        # b's tail touches the ring's head, the ring's tail touches c's head
        chip.create_processor("b", region=path_region([(0, 0), (0, 1)]))
        chip.create_processor("c", region=path_region([(3, 1), (3, 2)]))
        self.assert_refused(chip, lambda: scaler.fuse("b", "r"))
        self.assert_refused(chip, lambda: scaler.fuse("r", "c"))

    def test_split_refused(self, chip, scaler):
        chip.create_processor("r", region=ring_region((0, 0), 2, 2))
        self.assert_refused(chip, lambda: scaler.split("r", 2, "h", "t"))


class TestConfigCycleAccounting:
    def test_cycles_accumulate_across_grow_shrink_grow(self):
        # needs the NoC: config cycles are priced from real worm traffic
        chip = VLSIProcessor(4, 4)
        scaler = ScalingController(chip)
        chip.create_processor("A", n_clusters=3)
        instance = chip.processor("A")
        total = instance.config_cycles
        assert total == instance.last_config_cycles > 0

        scaler.up_scale("A", 2)
        # grow ADDS the new worm's cycles to the lifetime total
        total += instance.last_config_cycles
        assert instance.config_cycles == total

        scaler.down_scale("A", 1)
        # shrink unchains directly -- no worm, no new cycles
        assert instance.config_cycles == total

        scaler.up_scale("A", 1)
        total += instance.last_config_cycles
        assert instance.config_cycles == total
        # the lifetime total now exceeds any single reconfiguration
        assert instance.config_cycles > instance.last_config_cycles
