"""The batched CSD fault draw against numpy's per-site generators.

:func:`repro.faults.model.first_uniforms` mirrors numpy's
``SeedSequence`` and ``PCG64`` to compute the first ``random()`` of many
site generators at once.  These properties hold it to
``np.random.default_rng((seed, crc)).random()`` for seeds of one to six
32-bit words, so the entropy reaches SeedSequence's extra-entropy loop,
and hold :meth:`FaultPlan.csd_fault_masks` to one ``draw()`` per site.
A numpy release that changes its streams (NEP 19 allows that between
feature releases) fails here.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults.model as model
from repro.faults.injector import FaultInjector
from repro.faults.model import (
    FaultKind,
    FaultPlan,
    csd_segment_site,
    first_uniforms,
)


@st.composite
def _seeds(draw):
    """A plan seed of 1 to 6 32-bit words, each width equally likely."""
    words = draw(st.integers(1, 6))
    low = 0 if words == 1 else 2 ** (32 * (words - 1))
    return draw(st.integers(low, 2 ** (32 * words) - 1))


def _reference(seed, crcs):
    return [np.random.default_rng((seed, int(crc))).random() for crc in crcs]


class TestFirstUniforms:
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
        assert first_uniforms(seed, crcs).tolist() == _reference(seed, crcs)

    @given(
        seed=_seeds(),
        crcs=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_default_rng_on_raw_words(self, seed, crcs):
        assert first_uniforms(seed, crcs).tolist() == _reference(seed, crcs)

    @pytest.mark.parametrize("seed", [0, 2**96 + 7])
    def test_batches_longer_than_one_chunk(self, seed):
        crcs = np.random.default_rng(seed % 2**32).integers(
            0, 2**32, size=2 * model._CHUNK + 3, dtype=np.uint32
        )
        assert first_uniforms(seed, crcs).tolist() == _reference(seed, crcs)

    def test_empty_batch(self):
        assert first_uniforms(5, []).shape == (0,)


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
        masks = plan.csd_fault_masks(domain, n_channels, n_segments)
        assert plan.csd_fault_masks(domain, n_channels, n_segments) == masks
        for channel in range(n_channels):
            for segment in range(n_segments):
                site = csd_segment_site(domain, channel, segment)
                fresh = FaultPlan(**knobs).draw(FaultKind.CSD_SEGMENT, site)
                assert bool(masks[channel] >> segment & 1) == (fresh is not None)
                assert plan.draw(FaultKind.CSD_SEGMENT, site) == fresh
            assert masks[channel] >> n_segments == 0

    def test_rate_zero_touches_no_rng(self, monkeypatch):
        """A plan whose CSD rate is 0 answers the grid, and the filter
        built on it, without a generator or a batch, even when every
        other kind is faulty."""
        built = []
        monkeypatch.setattr(
            np.random, "default_rng", lambda *a, **k: built.append(a)
        )
        monkeypatch.setattr(
            model, "first_uniforms", lambda *a, **k: built.append(a)
        )
        plan = FaultPlan(
            seed=3, default_rate=1.0, rates={FaultKind.CSD_SEGMENT: 0.0}
        )
        assert plan.csd_fault_masks("csd", 4, 7) == [0, 0, 0, 0]
        injector = FaultInjector(plan)
        assert injector.filter_csd_channels(
            [3, 1, 2], 0, 7, n_channels=4, n_segments=7
        ) == [3, 1, 2]
        assert built == []
