"""The bulk request draw against the scalar draw it replaced.

:class:`ScalarWorkload` keeps the one-``integers``-call-per-value draw
of ``LocalityWorkload`` as it was before the bulk tape, verbatim.  The
properties demand the same requests and the same generator state after
every call, so any Figure 3 output drawn through the bulk tape is the
one the scalar draw gave.
"""

from typing import List, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csd.locality import ChainingRequest, LocalityWorkload


class ScalarWorkload(LocalityWorkload):
    """The scalar reference: two or more ``Generator.integers`` calls
    per request."""

    def requests(self, n_requests: Optional[int] = None) -> List[ChainingRequest]:
        if n_requests is None:
            n_requests = self.n_objects - 1
        if n_requests < 1:
            raise ValueError("need at least one request")
        out: List[ChainingRequest] = []
        for _ in range(n_requests):
            sink = int(self._rng.integers(0, self.n_objects))
            source = self._source_near(sink, avoid=sink)
            out.append(ChainingRequest(sink=sink, source=source))
        return out

    def requests_two_source(
        self, n_requests: Optional[int] = None
    ) -> List[ChainingRequest]:
        if n_requests is None:
            n_requests = self.n_objects - 1
        if n_requests < 1:
            raise ValueError("need at least one request")
        out: List[ChainingRequest] = []
        for _ in range(n_requests):
            sink = int(self._rng.integers(0, self.n_objects))
            s1 = self._source_near(sink, avoid=sink)
            s2 = self._source_near(sink, avoid=sink)
            out.append(ChainingRequest(sink=sink, source=s1, source2=s2))
        return out

    def _source_near(self, anchor: int, avoid: int) -> int:
        """Draw a source ID = anchor + offset, clamped, != ``avoid``."""
        for _ in range(64):
            offset = int(self._rng.integers(-self.spread, self.spread + 1))
            source = min(max(anchor + offset, 0), self.n_objects - 1)
            if source != avoid:
                return source
        # pathological corner (tiny array, avoid sits on the clamp target):
        # walk to the nearest distinct position
        source = avoid + 1 if avoid + 1 < self.n_objects else avoid - 1
        return source


@st.composite
def _draws(draw):
    """``(n, locality, seed, n_requests, two_source_first)``.  Tiny
    arrays reach the 64-try fallback; arrays of 2**30 or more reject
    up to half of their words, so they get few requests."""
    band = draw(st.sampled_from(["tiny", "array", "huge"]))
    if band == "tiny":
        n = draw(st.integers(2, 5))
    elif band == "array":
        n = draw(st.integers(6, 4096))
    else:
        n = draw(st.integers(2**30, 2**31 - 1))
    locality = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    cap = 12 if band == "huge" else 3 * n
    counts = st.one_of(st.just(1), st.integers(1, cap))
    if band != "huge":
        counts = st.one_of(st.none(), counts)
    return (
        n,
        locality,
        draw(st.integers(0, 2**32 - 1)),
        draw(counts),
        draw(st.booleans()),
    )


def _call(workload, two_source, n_requests):
    if two_source:
        return workload.requests_two_source(n_requests)
    return workload.requests(n_requests)


class TestBulkDrawMatchesScalar:
    @settings(deadline=None, max_examples=300)
    @given(case=_draws())
    def test_requests_and_generator_state(self, case):
        n, locality, seed, n_requests, two_first = case
        bulk = LocalityWorkload(n, locality, seed=seed)
        scalar = ScalarWorkload(n, locality, seed=seed)
        for two_source in (two_first, not two_first):
            assert _call(bulk, two_source, n_requests) == _call(
                scalar, two_source, n_requests
            )
            assert bulk._rng.bit_generator.state == scalar._rng.bit_generator.state


class _CountingGenerator:
    """Forwards to a ``Generator`` and counts its ``integers`` calls."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestOneTapePerCall:
    def test_requests_draw_in_bulk(self):
        """At most 4 calls for 1023 requests.  The scalar reference makes
        at least 2 * 1023 through the same proxy, so the proxy counts."""
        for cls, bound in ((LocalityWorkload, 4), (ScalarWorkload, None)):
            wl = cls(1024, 0.0, seed=42)
            counting = _CountingGenerator(wl._rng)
            wl._rng = counting
            wl.requests()
            if bound is None:
                assert counting.calls >= 2 * 1023
            else:
                assert counting.calls <= bound
