"""Lockstep validation of the vector CSD kernel against the live
network.

The hypothesis property feeds one span stream to
:meth:`VectorCSDKernel.grant_many` and to
:meth:`DynamicCSDNetwork.connect` and demands the same grant or block
for every request, then the same used and highest channel counts.  A
count guard bounds the channel masks one N=1024 trial reads, so the
group skip cannot silently fall back to a scan of every channel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChannelAllocationError
from repro.csd.dynamic_csd import DynamicCSDNetwork
from repro.csd.locality import LocalityWorkload
from repro.megascale.kernel import GROUP, VectorCSDKernel, attempt_spans


def _grant(kern, spans):
    """``kern.grant_many`` over a list of ``(lo, hi)`` spans, as a list."""
    lo = np.array([a for a, _ in spans], dtype=np.int64)
    hi = np.array([b for _, b in spans], dtype=np.int64)
    return kern.grant_many(lo, hi).tolist()


def _span(n_objects):
    return st.integers(0, n_objects - 2).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, n_objects - 1))
    )


def _long_span(n_objects):
    """A span from the first third of the array into the last third."""
    third = (n_objects - 1) // 3
    return st.tuples(
        st.integers(0, third), st.integers(n_objects - 1 - third, n_objects - 1)
    )


@st.composite
def _small(draw):
    """A 1-6 channel, 2-11 object array: few channels against up to 40
    requests makes blocks common."""
    n_objects = draw(st.integers(2, 11))
    spans = draw(st.lists(_span(n_objects), max_size=40))
    return draw(st.integers(1, 6)), n_objects, spans


@st.composite
def _grouped(draw):
    """A 9-40 channel, 20-70 object array under 8-250 requests, long
    ones likely: long spans share the middle third, so each takes a
    channel of its own, complete groups form and fill, and the channel
    budget runs out."""
    n_objects = draw(st.integers(20, 70))
    span = st.one_of(_long_span(n_objects), _span(n_objects))
    spans = draw(st.lists(span, min_size=GROUP, max_size=250))
    return draw(st.integers(GROUP + 1, 40)), n_objects, spans


@st.composite
def _streams(draw):
    """``(n_channels, n_objects, spans, cut)``: a connect stream split at
    ``cut`` into two batches."""
    n_channels, n_objects, spans = draw(st.one_of(_small(), _grouped()))
    cut = draw(st.integers(0, len(spans)))
    return n_channels, n_objects, spans, cut


class TestLockstepProperty:
    @settings(deadline=None, max_examples=200)
    @given(stream=_streams())
    def test_grant_many_matches_live(self, stream):
        n_channels, n_objects, spans, cut = stream
        live = DynamicCSDNetwork(n_objects, n_channels=n_channels)
        expected = []
        for lo, hi in spans:
            try:
                expected.append(live.connect(lo, hi).channel)
            except ChannelAllocationError:
                expected.append(-1)
        kern = VectorCSDKernel(n_channels, n_objects - 1)
        got = _grant(kern, spans[:cut]) + _grant(kern, spans[cut:])
        assert got == expected
        assert kern.used_channels() == live.used_channels()
        assert kern.highest_used_channel() == live.highest_used_channel()


class _CountingMasks(list):
    """A mask list that counts the masks read from it, iterated or
    indexed (a slice counts each mask it copies)."""

    reads = 0

    def __iter__(self):
        for mask in list.__iter__(self):
            self.reads += 1
            yield mask

    def __getitem__(self, key):
        got = list.__getitem__(self, key)
        self.reads += len(got) if isinstance(key, slice) else 1
        return got


class TestGroupSkipping:
    def test_full_groups_are_skipped_with_one_test(self):
        """Channel masks read for one N=1024 trial.  Scanning every used
        channel up to the first fit reads 161,371 at locality 0; at
        locality 1 at most six channels are used, no group completes,
        and the scan is the same."""
        for locality, bound in ((0.0, 20_000), (1.0, 1_521)):
            lo, hi, _ = attempt_spans(
                *LocalityWorkload(1024, locality, seed=42).draw()
            )
            kern = VectorCSDKernel(1024, 1023)
            kern._masks = masks = _CountingMasks()
            kern.grant_many(lo, hi)
            assert masks.reads <= bound


class TestKernelUnit:
    def test_first_fit_is_lowest_channel(self):
        kern = VectorCSDKernel(3, 8)
        assert _grant(kern, [(0, 4), (2, 6), (4, 8), (0, 8), (3, 5)]) == [
            0,
            1,  # overlaps channel 0
            0,  # disjoint: shares channel 0
            2,
            -1,  # every channel busy there
        ]
        assert kern.used_channels() == kern.highest_used_channel() == 3

    def test_span_off_the_array_blocks(self):
        kern = VectorCSDKernel(4, 6)
        assert _grant(kern, [(4, 7), (0, 6)]) == [-1, 0]
        assert kern.used_channels() == 1

    def test_grant_many_validates_before_applying(self):
        kern = VectorCSDKernel(2, 6)
        for bad in ([(0, 3), (5, 2)], [(0, 3), (-1, 2)], [(0, 3), (4, 4)]):
            with pytest.raises(ValueError):
                _grant(kern, bad)
        # the malformed batches must not have applied their valid prefix
        assert kern.used_channels() == kern.highest_used_channel() == 0
        assert _grant(kern, [(0, 3)]) == [0]

    def test_capacity_growth_preserves_rows(self):
        """Many disjoint spans share one channel, across batches."""
        kern = VectorCSDKernel(200, 400)
        grants = _grant(kern, [(i, i + 1) for i in range(300)])
        assert grants == [0] * 300  # disjoint spans all fit channel 0
        assert _grant(kern, [(299, 301), (300, 400)]) == [1, 0]
        assert kern.used_channels() == 2
