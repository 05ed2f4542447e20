"""The bitmask CSD channel filter in lockstep with the per-site walk.

:class:`ReferenceInjector` keeps the filter as it was before the
bitmasks: every segment of the span, of every candidate channel,
through ``_active``.  The properties drive both injectors through the
same filter calls and quarantines and demand the same surviving
channels, trigger ledger, healed sites, counters and trace instants, in
order, with the domains derived one by one or as one group.  The count
guards hold faulty campaign trials to no generator for a CSD segment,
three counter lookups per class of fault that fires, site strings only
for faulty segments, one batch per ChainedCSD and one ``_active`` call
per fault that fires or heals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults.model as model
from repro import telemetry
from repro.engine import SweepEngine
from repro.faults.campaign import run_fault_trial
from repro.faults.injector import FaultInjector
from repro.faults.model import (
    FaultKind,
    FaultPlan,
    csd_segment_site,
    junction_site,
    parse_csd_segment_site,
)
from repro.telemetry.registry import Registry


class ReferenceInjector(FaultInjector):
    """The per-site filter the bitmask filter replaced."""

    def csd_channel_blocked(self, channel, lo, hi, domain="csd"):
        blocked = False
        for segment in range(lo, hi):
            if self._active(
                FaultKind.CSD_SEGMENT, csd_segment_site(domain, channel, segment)
            ):
                blocked = True
        return blocked

    def filter_csd_channels(
        self, channels, lo, hi, domain="csd", *, n_channels, n_segments
    ):
        return [
            ch
            for ch in channels
            if not self.csd_channel_blocked(ch, lo, hi, domain=domain)
        ]


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


#: Two CSD fault domains and their channel-pool geometries.
DOMAINS = {"csd": (6, 9), "seg1": (3, 4)}


def _run(injector_type, plan_kwargs, ops, grouped=False):
    """Apply ``ops`` to a fresh injector inside a tracing session;
    return everything the two filters must agree on.  ``grouped``
    registers both domains as one group, derived together."""
    plan = FaultPlan.none() if plan_kwargs is None else FaultPlan(**plan_kwargs)
    injector = injector_type(plan)
    if grouped:
        injector.register_csd_group(
            [(domain, *geometry) for domain, geometry in DOMAINS.items()]
        )
    answers = []
    with telemetry.session(trace=True):
        for op in ops:
            if op[0] == "quarantine":
                injector.quarantine(op[1])
                continue
            _, domain, channels, lo, hi = op
            n_channels, n_segments = DOMAINS[domain]
            answers.append(injector.filter_csd_channels(
                channels, lo, hi, domain=domain,
                n_channels=n_channels, n_segments=n_segments,
            ))
            answers.append(injector.junction_fault(len(answers) % 3))
    registry = telemetry.get_registry()
    return {
        "answers": answers,
        "triggers": injector._triggers,
        "healed": injector._healed,
        "counters": {n: c.value for n, c in registry.counters.items()},
        "instants": [(s.name, s.attrs) for s in registry.tracer.spans],
    }


@st.composite
def _filter_op(draw):
    domain = draw(st.sampled_from(sorted(DOMAINS)))
    n_channels, n_segments = DOMAINS[domain]
    channels = draw(st.lists(st.integers(0, n_channels - 1), max_size=8))
    lo = draw(st.integers(0, n_segments))
    hi = draw(st.integers(lo, n_segments))
    return ("filter", domain, channels, lo, hi)


@st.composite
def _quarantine_op(draw):
    """A CSD segment inside or outside a domain's geometry, or another
    kind's site."""
    domain = draw(st.sampled_from(sorted(DOMAINS) + ["seg9"]))
    n_channels, n_segments = DOMAINS.get(domain, (2, 2))
    site = draw(st.one_of(
        st.builds(
            csd_segment_site, st.just(domain),
            st.integers(0, n_channels), st.integers(0, n_segments),
        ),
        st.builds(junction_site, st.integers(0, 2)),
    ))
    return ("quarantine", site)


_PLANS = st.one_of(
    st.none(),
    st.fixed_dictionaries({
        "seed": st.integers(0, 2**64),
        "default_rate": st.sampled_from([0.0, 0.3, 1.0]),
        "rates": st.fixed_dictionaries({
            FaultKind.CSD_SEGMENT: st.one_of(
                st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0)
            ),
        }),
        "transient_fraction": st.sampled_from([0.0, 0.5, 1.0]),
        "transient_hits": st.integers(1, 4),
    }),
)


class TestLockstep:
    @given(
        plan=_PLANS,
        ops=st.lists(
            st.one_of(_filter_op(), _filter_op(), _quarantine_op()),
            max_size=25,
        ),
        grouped=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_mask_filter_matches_per_site_walk(self, plan, ops, grouped):
        assert _run(FaultInjector, plan, ops, grouped) == _run(
            ReferenceInjector, plan, ops
        )

    @pytest.mark.parametrize("plan", [
        None,
        dict(seed=5, rates={FaultKind.CSD_SEGMENT: 0.0}, default_rate=1.0),
        dict(seed=5, default_rate=0.4, transient_fraction=1.0, transient_hits=1),
    ], ids=["none", "csd-rate-0", "heals-after-one-hit"])
    @pytest.mark.parametrize("when", ["before", "between", "after"])
    def test_quarantine_before_and_after_the_grid(self, plan, when):
        """A quarantined segment blocks its channel whether it lands
        before the domain's grid exists, between two filters, or after
        its transient fault healed."""
        site = csd_segment_site("csd", 2, 3)
        everything = ("filter", "csd", list(range(6)), 0, 9)
        ops = [everything] * 3
        ops.insert({"before": 0, "between": 1, "after": 3}[when],
                   ("quarantine", site))
        ops.append(everything)
        mask = _run(FaultInjector, plan, ops)
        assert mask == _run(ReferenceInjector, plan, ops)
        assert 2 not in mask["answers"][-2]

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_quarantine_before_and_after_the_group(self, when):
        """A segment quarantined in a grid its group derived as a side
        effect blocks its channel, whether it lands before or after the
        group's derivation."""
        plan = dict(seed=5, default_rate=0.4)
        site = csd_segment_site("seg1", 1, 2)
        ops = [
            ("filter", "csd", list(range(6)), 0, 9),
            ("filter", "seg1", [0, 1, 2], 0, 4),
        ]
        ops.insert({"before": 0, "after": 1}[when], ("quarantine", site))
        grouped = _run(FaultInjector, plan, ops, grouped=True)
        assert grouped == _run(FaultInjector, plan, ops)
        assert grouped == _run(ReferenceInjector, plan, ops)
        assert 1 not in grouped["answers"][-2]


class TestSiteParse:
    @given(
        domain=st.text(max_size=12),
        channel=st.integers(0, 10**6),
        segment=st.integers(0, 10**6),
    )
    def test_round_trip(self, domain, channel, segment):
        site = csd_segment_site(domain, channel, segment)
        assert parse_csd_segment_site(site) == (domain, channel, segment)

    @pytest.mark.parametrize("site", [
        "csd/ch01/seg2", "csd/ch1/seg-2", "csd/ch1/seg", "csd/ch1/seg2x",
        "csd/ch1", "junction/0", "csd/ch²/seg1",
    ])
    def test_other_strings_are_not_csd_segments(self, site):
        assert parse_csd_segment_site(site) is None


class TestCountGuards:
    """Faulty campaign trials, counted per step of the fast path."""

    def test_no_generator_for_csd_segments(self, monkeypatch):
        """The batch reads every CSD segment's fault, transient bit and
        duration from its three outputs, so a faulty trial builds a
        generator only for the other kinds' sites (220 CSD-segment
        generators here when the batch read only the first output)."""
        real_rng = np.random.default_rng
        real_derive = FaultPlan._derive
        built, derived = [], []

        def counting_rng(*args, **kwargs):
            built.append(args)
            return real_rng(*args, **kwargs)

        def recording_derive(plan, kind, site, rate):
            derived.append(kind)
            return real_derive(plan, kind, site, rate)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        monkeypatch.setattr(FaultPlan, "_derive", recording_derive)
        result = run_fault_trial(64, 0.05, 0, 42, engine=SweepEngine())
        site_rngs = [args for args in built if isinstance(args[0], tuple)]
        assert len(site_rngs) == len(derived)
        assert FaultKind.CSD_SEGMENT not in derived
        assert telemetry.counter("faults.csd.segment.triggered").value
        assert result["fault_triggers"]

    def test_trigger_counters_looked_up_once_per_fault_class(
        self, monkeypatch
    ):
        """A trigger increments counters the injector resolved on the
        first trigger of its (kind, transient) class: at most three
        registry lookups per class seen, not three per trigger."""
        real_counter = Registry.counter
        real_record = FaultInjector._record
        lookups, classes = [], set()

        def recording_counter(registry, name):
            if name.startswith("faults.") and name.endswith(".triggered"):
                lookups.append(name)
            return real_counter(registry, name)

        def recording_record(injector, fault):
            classes.add((fault.kind, fault.transient))
            return real_record(injector, fault)

        monkeypatch.setattr(Registry, "counter", recording_counter)
        monkeypatch.setattr(FaultInjector, "_record", recording_record)
        run_fault_trial(64, 0.05, 0, 42, engine=SweepEngine())
        looked_up = len(lookups)
        triggers = telemetry.counter("faults.triggered").value
        assert looked_up <= 3 * len(classes) < triggers

    def test_site_strings_only_for_faulty_segments(self, monkeypatch):
        """The batch hashes a grid from its domain prefix and per-size
        suffixes, so a CSD site string is formatted only for a faulty
        segment and no whole site string is hashed."""
        real_site = model.csd_segment_site
        real_crc = model._site_crc
        real_masks = FaultPlan.csd_fault_masks
        formatted, hashed, faulty = [], [], []

        def recording_site(*args):
            formatted.append(args)
            return real_site(*args)

        def recording_crc(kind, site):
            if kind is FaultKind.CSD_SEGMENT:
                hashed.append(site)
            return real_crc(kind, site)

        def recording_masks(plan, grids):
            masks = real_masks(plan, grids)
            faulty.extend(
                bin(mask).count("1") for grid in masks for mask in grid
            )
            return masks

        monkeypatch.setattr(model, "csd_segment_site", recording_site)
        monkeypatch.setattr(model, "_site_crc", recording_crc)
        monkeypatch.setattr(FaultPlan, "csd_fault_masks", recording_masks)
        run_fault_trial(64, 0.05, 0, 42, engine=SweepEngine())
        assert 0 < len(formatted) == sum(faulty)
        assert hashed == []

    @pytest.mark.parametrize("trial", [0, 1])
    def test_one_batch_per_chained_csd(self, monkeypatch, trial):
        """A faulty N=16 trial runs one batch for the CSD phase's grid
        and one for the ChainedCSD's three segment grids (three or four
        batches when each segment grid ran its own)."""
        real_outputs = model.site_outputs
        batches = []

        def recording_outputs(seed, crcs):
            batches.append(len(crcs))
            return real_outputs(seed, crcs)

        monkeypatch.setattr(model, "site_outputs", recording_outputs)
        run_fault_trial(16, 0.2, trial, 42, engine=SweepEngine())
        assert batches == [16 * 15, 3 * 2 * 3]

    def test_active_only_on_faults_that_fire_or_heal(self, monkeypatch):
        """The mask filter calls ``_active`` for a CSD segment only when
        its fault fires or heals on that call, never for a healthy one
        (48,990 calls here before the masks, 1,074 with them)."""
        real_active = FaultInjector._active
        fired, healed, idle = [], [], []

        def recording_active(injector, kind, site):
            healed_before = site in injector._healed
            active = real_active(injector, kind, site)
            if kind is FaultKind.CSD_SEGMENT:
                if active:
                    fired.append(site)
                elif site in injector._healed and not healed_before:
                    healed.append(site)
                else:
                    idle.append(site)
            return active

        monkeypatch.setattr(FaultInjector, "_active", recording_active)
        run_fault_trial(64, 0.05, 0, 42, engine=SweepEngine())
        assert fired and healed
        assert idle == []
        assert len(fired) == telemetry.counter(
            "faults.csd.segment.triggered"
        ).value
