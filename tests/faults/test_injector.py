"""Unit tests for the live FaultInjector and its protocol hooks."""

import pytest

from repro import telemetry
from repro.csd.chained import ChainedCSD
from repro.csd.dynamic_csd import DynamicCSDNetwork
from repro.errors import ChannelAllocationError, FaultInjectionError
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultKind, FaultPlan, junction_site


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


class TestTriggerLogic:
    def test_fault_free_never_triggers(self):
        inj = FaultInjector(FaultPlan.none())
        assert not inj.junction_fault(0)
        assert inj.total_triggers() == 0

    def test_transient_fault_heals_after_duration(self):
        plan = FaultPlan.uniform(1, 1.0, transient_fraction=1.0, transient_hits=3)
        inj = FaultInjector(plan)
        fault = plan.draw(FaultKind.SWITCH, junction_site(0))
        hits = sum(inj.junction_fault(0) for _ in range(10))
        assert hits == fault.duration
        assert junction_site(0) in inj.healed_sites
        assert not inj.junction_fault(0)  # healed for good

    def test_permanent_fault_never_heals(self):
        plan = FaultPlan.uniform(1, 1.0, transient_fraction=0.0)
        inj = FaultInjector(plan)
        assert all(inj.junction_fault(0) for _ in range(10))
        assert inj.healed_sites == ()

    def test_peek_does_not_consume_a_trigger(self):
        plan = FaultPlan.uniform(1, 1.0, transient_fraction=1.0)
        inj = FaultInjector(plan)
        for _ in range(5):
            assert inj.peek(FaultKind.SWITCH, junction_site(0))
        assert inj.total_triggers() == 0

    def test_quarantine_forces_site_faulty(self):
        inj = FaultInjector(FaultPlan.none())
        inj.quarantine(junction_site(2))
        assert inj.junction_fault(2)
        assert inj.is_permanent(FaultKind.SWITCH, junction_site(2))

    def test_triggers_are_counted_into_telemetry(self):
        plan = FaultPlan.uniform(1, 1.0, transient_fraction=0.0)
        inj = FaultInjector(plan)
        inj.junction_fault(0)
        inj.junction_fault(0)
        assert telemetry.counter("faults.triggered").value == 2
        assert telemetry.counter("faults.permanent.triggered").value == 2


#: The channel-pool geometry the filter tests pass: 16 channels of 8
#: segments.
GEOMETRY = dict(n_channels=16, n_segments=8)


class TestChannelFilter:
    def test_fault_free_filter_is_identity(self):
        inj = FaultInjector(FaultPlan.none())
        assert inj.filter_csd_channels([0, 1, 2], 0, 4, **GEOMETRY) == [0, 1, 2]

    def test_full_rate_drops_everything(self):
        inj = FaultInjector(FaultPlan.uniform(1, 1.0, transient_fraction=0.0))
        assert inj.filter_csd_channels([0, 1, 2], 0, 4, **GEOMETRY) == []

    def test_domains_are_independent_fault_spaces(self):
        inj = FaultInjector(FaultPlan.uniform(11, 0.5, transient_fraction=0.0))
        a = inj.filter_csd_channels(
            list(range(16)), 0, 4, domain="seg0", **GEOMETRY
        )
        b = inj.filter_csd_channels(
            list(range(16)), 0, 4, domain="seg1", **GEOMETRY
        )
        assert a != b  # overwhelmingly likely at rate 0.5 over 16 channels


class TestHookIntegration:
    def test_dynamic_csd_blocks_when_all_channels_fault(self):
        inj = FaultInjector(FaultPlan.uniform(1, 1.0, transient_fraction=0.0))
        net = DynamicCSDNetwork(8, faults=inj)
        with pytest.raises(ChannelAllocationError):
            net.connect(0, 5)
        assert telemetry.counter("csd.connect.fault_drops").value > 0

    def test_dynamic_csd_fault_free_injector_changes_nothing(self):
        plain = DynamicCSDNetwork(8)
        wired = DynamicCSDNetwork(8, faults=FaultInjector(FaultPlan.none()))
        assert plain.connect(0, 5).channel == wired.connect(0, 5).channel
        assert telemetry.counter("csd.connect.fault_drops").value == 0

    def test_chained_junction_fault_rolls_back_legs(self):
        plan = FaultPlan(
            seed=1, rates={FaultKind.SWITCH: 1.0}, transient_fraction=0.0
        )  # only junction/chain switches fault; segments stay healthy
        inj = FaultInjector(plan)
        chained = ChainedCSD([4, 4], faults=inj)
        with pytest.raises(FaultInjectionError):
            chained.connect((0, 1), (1, 2))
        # every occupied leg was released again
        for net in chained.segments:
            assert net.used_channels() == 0
        assert telemetry.counter("chained.connect.rollbacks").value > 0
