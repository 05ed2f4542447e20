"""The batched CSD fault draw against numpy's per-site generators.

:func:`repro.faults.model.site_outputs` mirrors numpy's ``SeedSequence``
and ``PCG64`` to compute the first three outputs of many site generators
at once.  These properties hold it to ``PCG64.random_raw(3)`` for seeds
of one to six 32-bit words, so the entropy reaches SeedSequence's
extra-entropy loop; hold the faulty bit, transient bit and duration
read from those outputs to ``random()``, ``random()`` and
``integers(1, hits + 1)`` of ``np.random.default_rng((seed, crc))``,
including where numpy's 32-bit Lemire step redraws and where it takes
its 64-bit path; and hold :meth:`FaultPlan.csd_fault_masks`, over one
grid or several in one batch, to one ``draw()`` per site.  A numpy release that changes its streams (NEP 19
allows that between feature releases) fails here.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults.model as model
from repro.faults.injector import FaultInjector
from repro.faults.model import (
    Fault,
    FaultKind,
    FaultPlan,
    csd_segment_site,
    site_outputs,
)

#: Duration bounds around numpy's paths: no draw at 1, Lemire's 32-bit
#: step below 2**32 (about half its draws redraw at 2**31 + 1), one
#: plain 32-bit draw at 2**32, the 64-bit path above.
HITS = [1, 2, 3, 7, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]
FRACTIONS = [0.0, 0.75, 1.0]


@st.composite
def _seeds(draw):
    """A plan seed of 1 to 6 32-bit words, each width equally likely."""
    words = draw(st.integers(1, 6))
    low = 0 if words == 1 else 2 ** (32 * (words - 1))
    return draw(st.integers(low, 2 ** (32 * words) - 1))


def _reference(seed, crcs):
    """Each site generator's first three outputs, one row per output."""
    return [
        list(column)
        for column in zip(*(
            np.random.default_rng((seed, int(crc))).bit_generator
            .random_raw(3).tolist()
            for crc in crcs
        ))
    ]


def _reference_fault(seed, crc, rate, fraction, hits):
    """``FaultPlan._derive``'s answer, from numpy's own generator."""
    rng = np.random.default_rng((seed, int(crc)))
    if rng.random() >= rate:
        return None
    transient = bool(rng.random() < fraction)
    return transient, int(rng.integers(1, hits + 1)) if transient else 1


def _lemire_redraws(raw, hits):
    low = int(raw) & 0xFFFFFFFF
    return hits <= 2**32 and (low * hits) % 2**32 < 2**32 % hits


class TestFirstUniforms:
    """The batch's outputs, the first of which is each site's first
    ``random()``."""

    @given(
        seed=_seeds(),
        kind=st.sampled_from(list(FaultKind)),
        sites=st.lists(st.text(max_size=40), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_default_rng_on_site_strings(self, seed, kind, sites):
        crcs = [
            zlib.crc32(f"{kind.value}:{site}".encode("utf-8")) for site in sites
        ]
        assert site_outputs(seed, crcs).tolist() == _reference(seed, crcs)

    @given(
        seed=_seeds(),
        crcs=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_default_rng_on_raw_words(self, seed, crcs):
        assert site_outputs(seed, crcs).tolist() == _reference(seed, crcs)

    @pytest.mark.parametrize("seed", [0, 2**96 + 7])
    def test_batches_longer_than_one_chunk(self, seed):
        crcs = np.random.default_rng(seed % 2**32).integers(
            0, 2**32, size=2 * model._CHUNK + 3, dtype=np.uint32
        )
        assert site_outputs(seed, crcs).tolist() == _reference(seed, crcs)

    def test_first_output_is_the_first_random(self):
        crcs = [0, 1, 2**32 - 1]
        assert model._unit(site_outputs(9, crcs)[0]).tolist() == [
            np.random.default_rng((9, crc)).random() for crc in crcs
        ]

    def test_empty_batch(self):
        assert site_outputs(5, []).shape == (3, 0)


class TestLaterDraws:
    @given(
        seed=_seeds(),
        crcs=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20),
        hits=st.sampled_from(HITS),
    )
    @settings(max_examples=150, deadline=None)
    def test_durations_match_integers(self, seed, crcs, hits):
        """A duration read from the third output equals numpy's
        ``integers(1, hits + 1)``; 0 marks exactly the sites where numpy
        redraws or takes its 64-bit path."""
        raw = site_outputs(seed, crcs)[2]
        durations = model._durations(raw, hits).tolist()
        for crc, out, duration in zip(crcs, raw.tolist(), durations):
            rng = np.random.default_rng((seed, crc))
            rng.random()
            rng.random()
            want = int(rng.integers(1, hits + 1))
            if hits > 2**32 or _lemire_redraws(out, hits):
                assert duration == 0
            else:
                assert duration == want

    @given(
        seed=_seeds(),
        rate=st.sampled_from([1.0, 0.5]),
        fraction=st.sampled_from(FRACTIONS),
        hits=st.sampled_from(HITS),
        n_channels=st.integers(1, 4),
        n_segments=st.integers(1, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_grid_faults_match_default_rng(
        self, seed, rate, fraction, hits, n_channels, n_segments
    ):
        plan = FaultPlan(
            seed=seed, default_rate=rate, transient_fraction=fraction,
            transient_hits=hits,
        )
        (masks,) = plan.csd_fault_masks([("seg1", n_channels, n_segments)])
        kind = FaultKind.CSD_SEGMENT
        for channel in range(n_channels):
            for segment in range(n_segments):
                site = csd_segment_site("seg1", channel, segment)
                want = _reference_fault(
                    seed, model._site_crc(kind, site), rate, fraction, hits
                )
                assert bool(masks[channel] >> segment & 1) == (want is not None)
                if want is not None:
                    assert plan.draw(kind, site) == Fault(kind, site, *want)

    @pytest.mark.parametrize("hits", [2**31 + 1, 2**32 + 1])
    def test_redraws_and_64_bit_path_fall_back_to_derive(
        self, monkeypatch, hits
    ):
        """Where numpy would not take the third output's low half once,
        the site's own generator answers, and agrees with numpy."""
        derived = []
        real_derive = FaultPlan._derive

        def recording_derive(plan, kind, site, rate):
            derived.append(site)
            return real_derive(plan, kind, site, rate)

        monkeypatch.setattr(FaultPlan, "_derive", recording_derive)
        plan = FaultPlan(
            seed=1, default_rate=1.0, transient_fraction=1.0,
            transient_hits=hits,
        )
        assert plan.csd_fault_masks([("csd", 4, 8)]) == [[0xFF] * 4]
        kind = FaultKind.CSD_SEGMENT
        sites = [csd_segment_site("csd", c, s) for c in range(4) for s in range(8)]
        crcs = [model._site_crc(kind, site) for site in sites]
        redraws = [
            site
            for site, out in zip(sites, site_outputs(1, crcs)[2].tolist())
            if hits > 2**32 or _lemire_redraws(out, hits)
        ]
        assert derived == redraws and derived
        if hits < 2**32:
            assert len(derived) < len(sites)
        for site, crc in zip(sites, crcs):
            want = _reference_fault(1, crc, 1.0, 1.0, hits)
            assert plan.draw(kind, site) == Fault(kind, site, *want)


class TestGridMasks:
    @given(
        seed=_seeds(),
        rate=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        transient_fraction=st.floats(0.0, 1.0),
        transient_hits=st.integers(1, 5),
        domain=st.sampled_from(["csd", "seg0", "seg2", "a/ch1/seg2"]),
        n_channels=st.integers(1, 6),
        n_segments=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_masks_and_memo_match_per_site_draws(
        self, seed, rate, transient_fraction, transient_hits, domain,
        n_channels, n_segments,
    ):
        knobs = dict(
            seed=seed, default_rate=rate,
            transient_fraction=transient_fraction,
            transient_hits=transient_hits,
        )
        plan = FaultPlan(**knobs)
        grid = (domain, n_channels, n_segments)
        (masks,) = plan.csd_fault_masks([grid])
        assert plan.csd_fault_masks([grid]) == [masks]
        for channel in range(n_channels):
            for segment in range(n_segments):
                site = csd_segment_site(domain, channel, segment)
                fresh = FaultPlan(**knobs).draw(FaultKind.CSD_SEGMENT, site)
                assert bool(masks[channel] >> segment & 1) == (fresh is not None)
                assert plan.draw(FaultKind.CSD_SEGMENT, site) == fresh
            assert masks[channel] >> n_segments == 0

    @given(
        seed=_seeds(),
        rate=st.sampled_from([1.0, 0.3]),
        transient_hits=st.sampled_from([1, 3, 2**31 + 1]),
        grids=st.lists(
            st.tuples(
                st.sampled_from(["csd", "seg0", "seg1", "a/ch1/seg2"]),
                st.integers(1, 6),
                st.integers(1, 9),
            ),
            min_size=1,
            max_size=4,
        ),
        chunk=st.sampled_from([1, 7, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_grids_in_one_batch_match_each_grid_and_draw(
        self, seed, rate, transient_hits, grids, chunk
    ):
        """Grids of mixed sizes derived together, their sites split
        across chunks, give each grid's own masks and every site's
        draw() answer."""
        knobs = dict(
            seed=seed, default_rate=rate, transient_fraction=0.75,
            transient_hits=transient_hits,
        )
        plan = FaultPlan(**knobs)
        default_chunk = model._CHUNK
        model._CHUNK = chunk
        try:
            together = plan.csd_fault_masks(grids)
        finally:
            model._CHUNK = default_chunk
        assert together == [
            FaultPlan(**knobs).csd_fault_masks([grid])[0] for grid in grids
        ]
        for (domain, n_channels, n_segments), masks in zip(grids, together):
            for channel in range(n_channels):
                for segment in range(n_segments):
                    site = csd_segment_site(domain, channel, segment)
                    fresh = FaultPlan(**knobs).draw(FaultKind.CSD_SEGMENT, site)
                    assert bool(masks[channel] >> segment & 1) == (
                        fresh is not None
                    )
                    assert plan.draw(FaultKind.CSD_SEGMENT, site) == fresh

    def test_no_grids(self):
        assert FaultPlan(seed=1, default_rate=1.0).csd_fault_masks([]) == []

    def test_rate_zero_touches_no_rng(self, monkeypatch):
        """A plan whose CSD rate is 0 answers the grid, and the filter
        built on it, without a generator or a batch, even when every
        other kind is faulty."""
        built = []
        monkeypatch.setattr(
            np.random, "default_rng", lambda *a, **k: built.append(a)
        )
        monkeypatch.setattr(
            model, "site_outputs", lambda *a, **k: built.append(a)
        )
        plan = FaultPlan(
            seed=3, default_rate=1.0, rates={FaultKind.CSD_SEGMENT: 0.0}
        )
        assert plan.csd_fault_masks([("csd", 4, 7), ("seg0", 2, 3)]) == [
            [0, 0, 0, 0], [0, 0],
        ]
        injector = FaultInjector(plan)
        assert injector.filter_csd_channels(
            [3, 1, 2], 0, 7, n_channels=4, n_segments=7
        ) == [3, 1, 2]
        assert built == []
