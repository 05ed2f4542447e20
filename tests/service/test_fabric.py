"""Admission control, quotas, shard confinement, reservation rollback."""

import pytest

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    FaultInjectionError,
    QuotaError,
    RegionError,
)
from repro.service.fabric import ResidentFabric, TenantQuota


def small_fabric(**kwargs):
    return ResidentFabric(4, 4, with_network=False, **kwargs)


class _StuckSwitchFault:
    """Stub fault injector: every chain switch ignores its programming,
    so any configuration worm with an internal edge aborts mid-commit."""

    def chain_switch_fault(self, a, b):
        return True


class TestAdmission:
    def test_admit_carves_fold_slices(self):
        fabric = small_fabric()
        t0, cost0 = fabric.admit("t0", 4, slot=0)
        t1, _ = fabric.admit("t1", 4, slot=4)
        order = fabric.vlsi.fabric.linear_order()
        assert list(t0.shard) == order[0:4]
        assert list(t1.shard) == order[4:8]
        assert cost0 == 1 + 4
        assert not (t0.shard_set & t1.shard_set)

    def test_duplicate_tenant_rejected(self):
        fabric = small_fabric()
        fabric.admit("t0", 2)
        with pytest.raises(AdmissionError, match="already admitted"):
            fabric.admit("t0", 2)

    def test_overlapping_slot_rejected(self):
        fabric = small_fabric()
        fabric.admit("t0", 4, slot=0)
        with pytest.raises(AdmissionError, match="overlaps tenant 't0'"):
            fabric.admit("t1", 4, slot=2)

    def test_out_of_bounds_slot_rejected(self):
        fabric = small_fabric()
        with pytest.raises(AdmissionError, match="outside"):
            fabric.admit("t0", 4, slot=14)
        with pytest.raises(AdmissionError, match="outside"):
            fabric.admit("t0", 4, slot=-1)

    def test_tenant_cap(self):
        fabric = small_fabric(max_tenants=1)
        fabric.admit("t0", 2)
        with pytest.raises(AdmissionError, match="cap"):
            fabric.admit("t1", 2)

    def test_first_fit_without_slot_skips_resident_shards(self):
        fabric = small_fabric()
        fabric.admit("t0", 4, slot=0)
        t1, _ = fabric.admit("t1", 4)
        order = fabric.vlsi.fabric.linear_order()
        assert list(t1.shard) == order[4:8]

    def test_no_room_without_slot(self):
        fabric = small_fabric()
        fabric.admit("t0", 15, slot=0)
        with pytest.raises(AdmissionError, match="no free"):
            fabric.admit("t1", 2)

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(0)
        with pytest.raises(ValueError):
            TenantQuota(4, processors=0)
        with pytest.raises(ValueError):
            TenantQuota(4, mailbox_slots=0)


class TestLongLivedNetwork:
    def test_aged_network_clock_still_creates(self):
        """The NoC cycle budget is per delivery: a resident fabric whose
        network has already lived past it keeps serving requests."""
        fabric = ResidentFabric(4, 4)
        fabric.vlsi.network.cycle_count = 100_000
        fabric.admit("t0", 4, slot=0)
        fabric.create("t0", "p0", 3)
        assert fabric.vlsi.network.cycle_count > 100_000


class TestQuotas:
    def test_cluster_quota_exhaustion(self):
        fabric = small_fabric()
        fabric.admit("t0", 4, slot=0)
        fabric.create("t0", "p0", 3)
        with pytest.raises(QuotaError, match="quota of 4"):
            fabric.create("t0", "p1", 2)
        # exactly filling the quota is fine
        fabric.create("t0", "p1", 1)
        with pytest.raises(QuotaError):
            fabric.scale_up("t0", "p0", 1)

    def test_processor_quota(self):
        fabric = small_fabric()
        fabric.admit("t0", 4, slot=0, processors=2)
        fabric.create("t0", "p0", 1)
        fabric.create("t0", "p1", 1)
        with pytest.raises(QuotaError, match="processor quota"):
            fabric.create("t0", "p2", 1)
        # destroying one frees a quota slot
        fabric.destroy("t0", "p0")
        fabric.create("t0", "p2", 1)

    def test_mailbox_quota(self):
        fabric = small_fabric()
        fabric.admit("t0", 6, slot=0, mailbox_slots=2)
        fabric.create("t0", "src", 1)
        fabric.create("t0", "dst", 1)
        fabric.send("t0", "src", "dst", "a", 1)
        fabric.send("t0", "src", "dst", "b", 2)
        with pytest.raises(QuotaError, match="mailbox full"):
            fabric.send("t0", "src", "dst", "c", 3)
        # overwriting an occupied slot is not a new slot
        fabric.send("t0", "src", "dst", "a", 9)


class TestShardConfinement:
    def test_allocation_stays_inside_shard(self):
        fabric = small_fabric()
        fabric.admit("t0", 4, slot=0)
        fabric.admit("t1", 4, slot=4)
        t0 = fabric.tenants["t0"]
        result, _ = fabric.create("t0", "p0", 4)
        region = fabric.instance("t0", "p0").region
        assert set(region.path) <= t0.shard_set
        assert result["clusters"] == 4
        # t1's shard is untouched
        for coord in fabric.tenants["t1"].shard:
            assert fabric.vlsi.fabric.cluster(coord).is_free

    def test_scale_up_cannot_leave_shard(self):
        fabric = small_fabric()
        fabric.admit("t0", 4, slot=0)
        # empty neighbouring shard-less clusters exist, but the quota
        # check fires first; give room under quota via a small create
        fabric.create("t0", "p0", 3)
        with pytest.raises((RegionError, QuotaError)):
            fabric.scale_up("t0", "p0", 3)

    def test_namespacing_isolates_tenants(self):
        fabric = small_fabric()
        fabric.admit("t0", 2, slot=0)
        fabric.admit("t1", 2, slot=2)
        fabric.create("t0", "p0", 1)
        fabric.create("t1", "p0", 1)  # same proc name, different tenant
        with pytest.raises(ConfigurationError, match="t0/missing"):
            fabric.send("t0", "p0", "missing", "k", 1)
        assert sorted(fabric.vlsi.processors) == ["t0/p0", "t1/p0"]


class TestReservationRollback:
    def test_failed_worm_rolls_back_flags_and_scale(self):
        fabric = small_fabric()
        fabric.admit("t0", 6, slot=0)
        fabric.create("t0", "p0", 2)
        region_before = fabric.instance("t0", "p0").region
        free_before = fabric.vlsi.free_clusters()
        # the extension worm hits a switch that ignores its programming
        fabric.vlsi.configurator.faults = _StuckSwitchFault()
        with pytest.raises(FaultInjectionError):
            fabric.scale_up("t0", "p0", 2)
        # §3.3 rollback: no reservation flags left, no clusters leaked,
        # the processor is still at its old scale
        assert fabric.reserved_switch_count() == 0
        assert fabric.vlsi.free_clusters() == free_before
        assert fabric.instance("t0", "p0").region == region_before
        # and the fabric still works once the fault clears
        fabric.vlsi.configurator.faults = None
        fabric.scale_up("t0", "p0", 2)
        assert len(fabric.instance("t0", "p0").region) == 4

    def test_evict_releases_everything(self):
        fabric = small_fabric()
        fabric.admit("t0", 6, slot=0)
        fabric.create("t0", "p0", 3)
        fabric.create("t0", "p1", 2)
        summary, cost = fabric.evict("t0")
        assert summary["released_clusters"] == 5
        assert cost == 1 + 5
        assert fabric.tenants == {}
        assert fabric.vlsi.processors == {}
        assert fabric.vlsi.free_clusters() == 16
        assert fabric.reserved_switch_count() == 0
        # the shard is reusable immediately
        fabric.admit("t1", 6, slot=0)
        fabric.create("t1", "p0", 6)


class TestCosts:
    def test_costs_are_deterministic_functions_of_the_op(self):
        def run():
            fabric = small_fabric()
            costs = []
            costs.append(fabric.admit("t0", 8, slot=0)[1])
            costs.append(fabric.create("t0", "p0", 3)[1])
            costs.append(fabric.scale_up("t0", "p0", 2)[1])
            costs.append(fabric.scale_down("t0", "p0", 4)[1])
            costs.append(fabric.create("t0", "p1", 2)[1])
            costs.append(fabric.send("t0", "p0", "p1", "k", 1)[1])
            costs.append(fabric.tenant_stats("t0")[1])
            costs.append(fabric.evict("t0")[1])
            return costs

        assert run() == run()

    def test_scale_down_and_destroy_costs(self):
        fabric = small_fabric()
        fabric.admit("t0", 6, slot=0)
        fabric.create("t0", "p0", 4)
        _, cost = fabric.scale_down("t0", "p0", 2)
        assert cost == 1 + 2 * 2
        result, cost = fabric.destroy("t0", "p0")
        assert result["released_clusters"] == 2
        assert cost == 1 + 2


class TestPlannedResize:
    """A resize with no free adjacent extension fails cleanly, and
    resize responses carry exactly the documented keys."""

    @staticmethod
    def _fragmented():
        # t0 owns the whole first shard; destroying "a" leaves a hole
        # in front of "b" with nothing free behind b's tail
        fabric = small_fabric()
        fabric.admit("t0", 8, slot=0)
        fabric.create("t0", "a", 2)
        fabric.create("t0", "b", 2)
        fabric.create("t0", "c", 4)
        fabric.destroy("t0", "a")
        return fabric

    def test_unplanned_fabric_still_fails_the_blocked_resize(self):
        fabric = self._fragmented()
        with pytest.raises(RegionError, match="no free 2-cluster extension"):
            fabric.scale_up("t0", "b", 2)

    def test_default_fabric_responses_stay_byte_identical(self):
        fabric = small_fabric()
        fabric.admit("t0", 8, slot=0)
        fabric.create("t0", "p", 2)
        up, _ = fabric.scale_up("t0", "p", 1)
        down, _ = fabric.scale_down("t0", "p", 1)
        stats, _ = fabric.tenant_stats("t0")
        for payload in (up, down, stats):
            assert "rewires_saved" not in payload
