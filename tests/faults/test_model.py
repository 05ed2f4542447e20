"""Unit tests for the fault universe (FaultPlan / Fault / site keys)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import (
    Fault,
    FaultKind,
    FaultPlan,
    chain_switch_site,
    csd_segment_site,
    junction_site,
    noc_link_site,
    worm_flit_site,
)


class TestFaultPlanBasics:
    def test_none_is_fault_free(self):
        plan = FaultPlan.none()
        assert plan.fault_free
        assert plan.draw(FaultKind.CSD_SEGMENT, "csd/ch0/seg0") is None

    def test_uniform_sets_every_kind(self):
        plan = FaultPlan.uniform(1, 0.3)
        for kind in FaultKind:
            assert plan.rate_for(kind) == 0.3
        assert not plan.fault_free

    def test_per_kind_rates_override_default(self):
        plan = FaultPlan(seed=1, rates={FaultKind.NOC_LINK: 0.5})
        assert plan.rate_for(FaultKind.NOC_LINK) == 0.5
        assert plan.rate_for(FaultKind.SWITCH) == 0.0

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_bad_rates_rejected(self, rate):
        with pytest.raises(ValueError):
            FaultPlan(default_rate=rate)
        with pytest.raises(ValueError):
            FaultPlan(rates={FaultKind.SWITCH: rate})

    @pytest.mark.parametrize("build", [
        lambda: FaultPlan(seed=-1),
        lambda: FaultPlan.uniform(-1, 0.5),
        lambda: FaultPlan.from_dict({"seed": -7, "default_rate": 0.0}),
    ], ids=["init", "uniform", "from_dict"])
    def test_negative_seed_rejected(self, build):
        """A negative seed fails when the plan is built, not at its
        first draw, and also when no draw would ever happen (rate 0)."""
        with pytest.raises(ValueError, match="seed"):
            build()

    def test_bad_transient_knobs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_fraction=1.5)
        with pytest.raises(ValueError):
            FaultPlan(transient_hits=0)

    def test_permanent_is_not_transient(self):
        fault = Fault(FaultKind.SWITCH, "junction/0", transient=False)
        assert fault.permanent
        assert not Fault(FaultKind.SWITCH, "junction/0", True).permanent


class TestDrawDeterminism:
    @given(seed=st.integers(0, 10_000), channel=st.integers(0, 63),
           segment=st.integers(0, 63))
    def test_draw_is_pure_in_seed_and_site(self, seed, channel, segment):
        site = csd_segment_site("csd", channel, segment)
        a = FaultPlan.uniform(seed, 0.4).draw(FaultKind.CSD_SEGMENT, site)
        b = FaultPlan.uniform(seed, 0.4).draw(FaultKind.CSD_SEGMENT, site)
        assert a == b

    def test_draw_independent_of_query_order(self):
        sites = [csd_segment_site("csd", c, s) for c in range(8) for s in range(8)]
        plan = FaultPlan.uniform(7, 0.3)
        forward = [plan.draw(FaultKind.CSD_SEGMENT, s) for s in sites]
        fresh = FaultPlan.uniform(7, 0.3)
        backward = [fresh.draw(FaultKind.CSD_SEGMENT, s) for s in reversed(sites)]
        assert forward == list(reversed(backward))

    def test_rate_roughly_respected(self):
        plan = FaultPlan.uniform(3, 0.5)
        sites = [noc_link_site((0, i), (1, i)) for i in range(400)]
        hits = sum(
            plan.draw(FaultKind.NOC_LINK, s) is not None for s in sites
        )
        assert 120 < hits < 280  # ~200 expected

    def test_transient_duration_bounded(self):
        plan = FaultPlan.uniform(5, 1.0, transient_hits=3)
        for i in range(50):
            fault = plan.draw(FaultKind.SWITCH, junction_site(i))
            assert fault is not None
            if fault.transient:
                assert 1 <= fault.duration <= 3

    def test_all_permanent_when_fraction_zero(self):
        plan = FaultPlan.uniform(5, 1.0, transient_fraction=0.0)
        for i in range(20):
            assert plan.draw(FaultKind.SWITCH, junction_site(i)).permanent


class TestDrawMemo:
    @given(
        seed=st.integers(0, 2**32 - 1),
        rate=st.floats(0.0, 1.0, exclude_min=True),
        transient_fraction=st.floats(0.0, 1.0),
        transient_hits=st.integers(1, 5),
        edits=st.tuples(
            st.floats(0.0, 1.0, exclude_min=True),
            st.floats(0.0, 1.0),
            st.integers(1, 5),
            st.integers(0, 2**32 - 1),
        ),
        queries=st.lists(
            st.tuples(st.sampled_from(list(FaultKind)), st.integers(0, 4)),
            min_size=1, max_size=30,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_memo_answers_like_a_fresh_plan(
        self, seed, rate, transient_fraction, transient_hits, edits, queries
    ):
        """Repeated queries, asked again after each input of the draw
        changes in turn (one kind's rate, the transient knobs, the
        seed): every answer equals a fresh plan's, so the memo key
        covers every input and never leaks into the plan's description."""
        knobs = dict(
            seed=seed, default_rate=rate,
            transient_fraction=transient_fraction,
            transient_hits=transient_hits,
        )
        plan = FaultPlan(**knobs)
        described = plan.as_dict()
        sites = [(kind, f"site/{i}") for kind, i in queries]
        changed = sites[0][0]
        new_rate, new_fraction, new_hits, new_seed = edits
        for attr, value in [
            (None, None),
            ("rates", {changed: new_rate}),
            ("transient_fraction", new_fraction),
            ("transient_hits", new_hits),
            ("seed", new_seed),
        ]:
            if attr is not None:
                setattr(plan, attr, value)
                knobs[attr] = value
            for kind, site in sites:
                assert plan.draw(kind, site) == FaultPlan(**knobs).draw(
                    kind, site
                )
            if attr is None:
                assert plan.as_dict() == described

    def test_one_generator_per_site(self, monkeypatch):
        """50 sites asked 8 times each build 50 generators, not 400."""
        real = np.random.default_rng
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        plan = FaultPlan.uniform(11, 0.5)
        sites = [junction_site(i) for i in range(50)]
        answers = [
            [plan.draw(FaultKind.SWITCH, site) for site in sites]
            for _ in range(8)
        ]
        assert len(built) == 50
        assert all(round_ == answers[0] for round_ in answers)


class TestRoundTrip:
    def test_as_dict_from_dict(self):
        plan = FaultPlan(
            seed=9, rates={FaultKind.WORM_FLIT: 0.2}, default_rate=0.05,
            transient_fraction=0.5, transient_hits=2,
        )
        clone = FaultPlan.from_dict(plan.as_dict())
        site = worm_flit_site(("chain", (0, 0), (0, 1)))
        assert clone.as_dict() == plan.as_dict()
        assert clone.draw(FaultKind.WORM_FLIT, site) == plan.draw(
            FaultKind.WORM_FLIT, site
        )


class TestSiteKeys:
    def test_chain_switch_site_is_undirected(self):
        assert chain_switch_site((1, 2), (1, 3)) == chain_switch_site((1, 3), (1, 2))

    def test_noc_link_site_is_directed(self):
        assert noc_link_site((0, 0), (0, 1)) != noc_link_site((0, 1), (0, 0))

    def test_sites_are_distinct_across_kinds(self):
        keys = {
            csd_segment_site("csd", 0, 0),
            junction_site(0),
            chain_switch_site((0, 0), (0, 1)),
            noc_link_site((0, 0), (0, 1)),
            worm_flit_site(("chain", (0, 0), (0, 1))),
        }
        assert len(keys) == 5
