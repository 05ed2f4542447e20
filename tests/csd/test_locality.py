"""Unit tests for the locality-controlled workload (section 2.6.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csd.locality import ChainingRequest, LocalityWorkload
from tests.csd.test_draw_oracle import ScalarWorkload


class TestChainingRequest:
    def test_span_length(self):
        assert ChainingRequest(sink=3, source=7).span_length == 4
        assert ChainingRequest(sink=7, source=3).span_length == 4


class TestWorkloadConstruction:
    def test_spread_from_locality(self):
        assert LocalityWorkload(100, 1.0).spread == 1
        assert LocalityWorkload(100, 0.0).spread == 100
        assert LocalityWorkload(100, 0.5).spread == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalityWorkload(1, 0.5)
        with pytest.raises(ValueError):
            LocalityWorkload(16, 1.5)
        with pytest.raises(ValueError):
            LocalityWorkload(16, -0.1)
        with pytest.raises(ValueError):
            LocalityWorkload(2**31, 0.5)


class TestRequests:
    def test_default_count_is_n_minus_one(self):
        reqs = LocalityWorkload(32, 0.5, seed=1).requests()
        assert len(reqs) == 31

    def test_explicit_count(self):
        assert len(LocalityWorkload(32, 0.5, seed=1).requests(10)) == 10

    def test_rejects_zero_requests(self):
        with pytest.raises(ValueError):
            LocalityWorkload(32, 0.5, seed=1).requests(0)

    def test_source_never_equals_sink(self):
        for loc in (0.0, 0.5, 1.0):
            for r in LocalityWorkload(16, loc, seed=7).requests(200):
                assert r.source != r.sink

    def test_positions_in_range(self):
        for r in LocalityWorkload(16, 0.0, seed=3).requests(200):
            assert 0 <= r.sink < 16
            assert 0 <= r.source < 16

    def test_reproducible_with_seed(self):
        a = LocalityWorkload(64, 0.3, seed=42).requests()
        b = LocalityWorkload(64, 0.3, seed=42).requests()
        assert a == b

    def test_high_locality_short_spans(self):
        reqs = LocalityWorkload(128, 1.0, seed=5).requests(500)
        assert max(r.span_length for r in reqs) <= 1 + 1  # clamp can add 1

    def test_low_locality_long_spans_appear(self):
        reqs = LocalityWorkload(128, 0.0, seed=5).requests(500)
        assert max(r.span_length for r in reqs) > 64


class TestRealizedLocality:
    def test_monotone_in_knob(self):
        # Higher locality knob -> shorter mean dependency distance.
        values = []
        for loc in (0.0, 0.5, 1.0):
            wl = LocalityWorkload(128, loc, seed=11)
            values.append(wl.realized_locality(*wl.draw(400)))
        assert values[0] > values[1] > values[2]

    def test_empty_requests(self):
        assert LocalityWorkload(16, 0.5).realized_locality([], []) == 0.0


class TestLongDraws:
    def test_outrunning_the_tape_draws_a_longer_one(self, monkeypatch):
        """On a 2-object array every sink sits at an end, so each source
        retries its offset about three times and a long two-source draw
        outruns its first tape.  The retried draw still gives the scalar
        draw's requests and generator state."""
        tapes = []
        columns = LocalityWorkload._columns

        def counted(self, tape, *args):
            tapes.append(len(tape))
            return columns(self, tape, *args)

        monkeypatch.setattr(LocalityWorkload, "_columns", counted)
        bulk = LocalityWorkload(2, 1.0, seed=3)
        scalar = ScalarWorkload(2, 1.0, seed=3)
        assert bulk.requests_two_source(200) == scalar.requests_two_source(200)
        assert bulk._rng.bit_generator.state == scalar._rng.bit_generator.state
        assert len(tapes) > 1


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(4, 64),
        loc=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
    )
    def test_all_requests_always_valid(self, n, loc, seed):
        wl = LocalityWorkload(n, loc, seed=seed)
        for r in wl.requests(3 * n):
            assert 0 <= r.sink < n
            assert 0 <= r.source < n
            assert r.source != r.sink
            assert r.span_length <= max(wl.spread, 1) + 1
