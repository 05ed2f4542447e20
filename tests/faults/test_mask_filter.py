"""The bitmask CSD channel filter in lockstep with the per-site walk.

:class:`ReferenceInjector` keeps the filter as it was before the
bitmasks: every segment of the span, of every candidate channel,
through ``_active``.  The properties drive both injectors through the
same filter calls and quarantines and demand the same surviving
channels, trigger ledger, healed sites, counters and trace instants, in
order.  The count guards hold a faulty N=64 campaign trial to one
generator per faulty site and one ``_active`` call per fault that fires
or heals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _run(injector_type, plan_kwargs, ops):
    """Apply ``ops`` to a fresh injector inside a tracing session;
    return everything the two filters must agree on."""
    plan = FaultPlan.none() if plan_kwargs is None else FaultPlan(**plan_kwargs)
    injector = injector_type(plan)
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
    )
    @settings(max_examples=150, deadline=None)
    def test_mask_filter_matches_per_site_walk(self, plan, ops):
        assert _run(FaultInjector, plan, ops) == _run(
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
    """A faulty N=64 campaign trial, counted per step of the fast path."""

    def test_generators_only_for_faulty_segments(self, monkeypatch):
        """The batched draw builds a generator for a CSD segment only
        when the segment is faulty (220 in all here; one per site
        asked, 4,393, before the batch)."""
        real_rng = np.random.default_rng
        real_derive = FaultPlan._derive
        built, derived = [], []

        def counting_rng(*args, **kwargs):
            built.append(args)
            return real_rng(*args, **kwargs)

        def recording_derive(plan, kind, site, rate):
            fault = real_derive(plan, kind, site, rate)
            derived.append((kind, fault))
            return fault

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        monkeypatch.setattr(FaultPlan, "_derive", recording_derive)
        run_fault_trial(64, 0.05, 0, 42, engine=SweepEngine())
        csd = [fault for kind, fault in derived if kind is FaultKind.CSD_SEGMENT]
        site_rngs = [args for args in built if isinstance(args[0], tuple)]
        assert len(site_rngs) == len(derived)
        assert csd and all(fault is not None for fault in csd)
        assert len(built) < 400

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
