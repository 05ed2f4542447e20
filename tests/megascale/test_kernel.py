"""Lockstep validation of the vector CSD kernel against the live
network.

The hypothesis property feeds one span stream to
:meth:`VectorCSDKernel.grant_many` and to
:meth:`DynamicCSDNetwork.connect` and demands the same grant or block
for every request, then the same used and highest channel counts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChannelAllocationError
from repro.csd.dynamic_csd import DynamicCSDNetwork
from repro.megascale.kernel import VectorCSDKernel


@st.composite
def _streams(draw):
    """``(n_channels, n_objects, spans, cut)``: a connect stream on a
    1-6 channel, 2-11 object array, split at ``cut`` into two batches.
    Few channels against up to 40 requests makes blocks common."""
    n_channels = draw(st.integers(1, 6))
    n_objects = draw(st.integers(2, 11))
    span = st.integers(0, n_objects - 2).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, n_objects - 1))
    )
    spans = draw(st.lists(span, max_size=40))
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
                expected.append(None)
        kern = VectorCSDKernel(n_channels, n_objects - 1)
        got = kern.grant_many(spans[:cut]) + kern.grant_many(spans[cut:])
        assert got == expected
        assert kern.used_channels() == live.used_channels()
        assert kern.highest_used_channel() == live.highest_used_channel()


class TestKernelUnit:
    def test_first_fit_is_lowest_channel(self):
        kern = VectorCSDKernel(3, 8)
        assert kern.grant_many([(0, 4), (2, 6), (4, 8), (0, 8), (3, 5)]) == [
            0,
            1,  # overlaps channel 0
            0,  # disjoint: shares channel 0
            2,
            None,  # every channel busy there
        ]
        assert kern.used_channels() == kern.highest_used_channel() == 3

    def test_span_off_the_array_blocks(self):
        kern = VectorCSDKernel(4, 6)
        assert kern.grant_many([(4, 7), (0, 6)]) == [None, 0]
        assert kern.used_channels() == 1

    def test_grant_many_validates_before_applying(self):
        kern = VectorCSDKernel(2, 6)
        for bad in ([(0, 3), (5, 2)], [(0, 3), (-1, 2)], [(0, 3), (4, 4)]):
            with pytest.raises(ValueError):
                kern.grant_many(bad)
        # the malformed batches must not have applied their valid prefix
        assert kern.used_channels() == kern.highest_used_channel() == 0
        assert kern.grant_many([(0, 3)]) == [0]

    def test_capacity_growth_preserves_rows(self):
        """Many disjoint spans share one channel, across batches."""
        kern = VectorCSDKernel(200, 400)
        grants = kern.grant_many([(i, i + 1) for i in range(300)])
        assert grants == [0] * 300  # disjoint spans all fit channel 0
        assert kern.grant_many([(299, 301), (300, 400)]) == [1, 0]
        assert kern.used_channels() == 2
