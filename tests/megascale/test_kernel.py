"""Lockstep validation of the vector CSD kernel against the live
network.

The hypothesis property drives one interleaved connect/shift program
through :class:`VectorCSDNetwork` and :class:`DynamicCSDNetwork`
simultaneously and demands bit-identical observables at every step:
grants, blocks, Connection records, eviction order, occupancy state,
and the statistics surface.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChannelAllocationError
from repro.csd.channels import Span
from repro.csd.dynamic_csd import DynamicCSDNetwork
from repro.megascale.kernel import VectorCSDKernel, VectorCSDNetwork

N_OBJECTS = 10

#: One protocol op: ("connect", source, sink) or ("shift", amount).
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("connect"),
            st.integers(0, N_OBJECTS - 1),
            st.integers(0, N_OBJECTS - 1),
        ).filter(lambda t: t[1] != t[2]),
        st.tuples(st.just("shift"), st.integers(1, 3)),
    ),
    max_size=40,
)


def _observables(net):
    return (
        net.used_channels(),
        net.highest_used_channel(),
        net.occupancy_state(),
        net.segment_demand(),
        net.channel_occupancy(),
        net.connections,
    )


class TestLockstepProperty:
    @settings(deadline=None, max_examples=60)
    @given(ops=_ops)
    def test_vector_network_matches_live(self, ops):
        live = DynamicCSDNetwork(N_OBJECTS)
        vec = VectorCSDNetwork(N_OBJECTS)
        for op in ops:
            if op[0] == "connect":
                _, source, sink = op
                try:
                    conn_live = live.connect(source, sink)
                    granted_live = conn_live.channel
                except ChannelAllocationError as exc:
                    granted_live = str(exc)
                try:
                    conn_vec = vec.connect(source, sink)
                    granted_vec = conn_vec.channel
                except ChannelAllocationError as exc:
                    granted_vec = str(exc)
                assert granted_vec == granted_live
                if not isinstance(granted_live, str):
                    assert conn_vec == conn_live
            else:
                evicted_live = live.stack_shift(op[1])
                evicted_vec = vec.stack_shift(op[1])
                assert evicted_vec == evicted_live
            assert _observables(vec) == _observables(live)

    @settings(deadline=None, max_examples=60)
    @given(
        spans=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
                lambda t: t[0] != t[1]
            ),
            max_size=30,
        )
    )
    def test_grant_many_equals_grant_loop(self, spans):
        spans = [(min(a, b), max(a, b)) for a, b in spans]
        batch = VectorCSDKernel(5, 9)
        loop = VectorCSDKernel(5, 9)
        got = batch.grant_many(spans)
        expected = [loop.grant(lo, hi) for lo, hi in spans]
        assert got == expected
        assert batch.occupancy_state() == loop.occupancy_state()
        assert batch.shift(2) == loop.shift(2)
        assert batch.occupancy_state() == loop.occupancy_state()


class TestKernelUnit:
    def test_first_fit_is_lowest_channel(self):
        kern = VectorCSDKernel(3, 8)
        assert kern.grant(0, 4) == 0
        assert kern.grant(2, 6) == 1  # overlaps channel 0
        assert kern.grant(4, 8) == 0  # disjoint: shares channel 0
        assert kern.grant(0, 8) == 2
        assert kern.grant(3, 5) is None  # every channel busy there

    def test_span_off_the_array_blocks(self):
        kern = VectorCSDKernel(4, 6)
        assert kern.first_free(4, 7) is None
        assert kern.survivors(4, 7) == []

    def test_survivors_ascending(self):
        kern = VectorCSDKernel(4, 8)
        kern.occupy(0, 0, 4)
        kern.occupy(2, 2, 6)
        assert kern.survivors(3, 5) == [1, 3]

    def test_shift_eviction_order_channel_then_insertion(self):
        kern = VectorCSDKernel(3, 6)
        # insertion order: ch1, ch0, ch0 — eviction must come back as
        # (channel asc, insertion within channel): o_b, o_c, o_a
        o_a = kern.occupy(1, 4, 6)
        o_b = kern.occupy(0, 4, 6)
        o_c = kern.occupy(0, 2, 4)
        assert kern.shift(3) == [o_b, o_c, o_a]
        assert kern.span_count() == 0

    def test_release_unknown_owner_raises(self):
        kern = VectorCSDKernel(2, 4)
        with pytest.raises(ChannelAllocationError):
            kern.release(99)

    def test_release_compacts_and_frees(self):
        kern = VectorCSDKernel(1, 4)
        owner = kern.occupy(0, 0, 4, owner=7)
        assert owner == 7
        assert kern.grant(1, 3) is None
        kern.release(7)
        assert kern.grant(1, 3) == 0

    def test_grant_many_validates_before_applying(self):
        kern = VectorCSDKernel(2, 6)
        with pytest.raises(ValueError):
            kern.grant_many([(0, 3), (5, 2)])
        # the malformed batch must not have applied its valid prefix
        assert kern.span_count() == 0

    def test_capacity_growth_preserves_rows(self):
        kern = VectorCSDKernel(200, 400)
        grants = kern.grant_many([(i, i + 1) for i in range(300)])
        assert grants == [0] * 300  # disjoint spans all fit channel 0
        assert kern.span_count() == 300
        assert kern.used_channels() == 1


class TestNetworkSurface:
    def test_same_validation_messages_as_live(self):
        live = DynamicCSDNetwork(8)
        vec = VectorCSDNetwork(8)
        for source, sinks in [(0, ()), (0, (9,)), (3, (3,))]:
            with pytest.raises(ValueError) as live_exc:
                live.connect_fanout(source, sinks)
            with pytest.raises(ValueError) as vec_exc:
                vec.connect_fanout(source, sinks)
            assert str(vec_exc.value) == str(live_exc.value)

    def test_default_channel_budget_matches_live(self):
        assert VectorCSDNetwork(16).n_channels == len(DynamicCSDNetwork(16).pool)
        assert VectorCSDNetwork(2).n_channels == len(DynamicCSDNetwork(2).pool)

    def test_fanout_span_covers_all_sinks(self):
        vec = VectorCSDNetwork(10, n_channels=4)
        conn = vec.connect_fanout(5, (2, 8))
        assert conn.span == Span(2, 8)

    def test_disconnect_unknown_connection(self):
        vec = VectorCSDNetwork(8)
        conn = vec.connect(0, 3)
        vec.disconnect(conn)
        with pytest.raises(ChannelAllocationError):
            vec.disconnect(conn)
