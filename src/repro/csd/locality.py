"""Locality-controlled random datapath workload (paper section 2.6.2).

The Figure 3 experiment: "A random request of a sink object and a
locality based request of a source object were used.  Regarding the
source object ID, the preceding sink object ID and an offset are used,
and therefore by controlling the offset we can generate a random
configuration with the locality, where a higher locality takes a very
small number or is equal to zero."

In the global configuration stream an element is a sink ID followed by
its source ID(s), so "the preceding sink object ID" is the sink the
source belongs to.  Request *t* of a datapath configuration is therefore

    sink_t   ~ Uniform[0, N)
    source_t = clamp(sink_t + offset_t, 0, N-1)          (one-source model)
    offset_t ~ Uniform[-spread, +spread] \\ {0}

where ``spread`` is the locality knob: ``spread = max(1, round((1 - locality) · N))``
— ``locality = 1`` keeps sources adjacent to their sink (offset
magnitude ≈ 1, "a higher locality takes a very small number or is equal
to zero"), ``locality = 0`` spreads them across the whole array.  The
realised locality of a generated configuration is reported as the mean
|source − sink| dependency distance normalised by N.

A seed fixes every request: they are the values of one scalar
``Generator.integers`` call per sink and per offset try.
:meth:`LocalityWorkload.draw` makes them from one bulk tape of the
generator's 32-bit words instead, because a scalar call costs more than
its arithmetic, and leaves the generator where the scalar calls would.
It evaluates the bounded draw on the whole tape at once and returns
columns — an int64 sink column and one source column per source — which
both trial paths read without building a request object;
:meth:`~LocalityWorkload.requests` and ``requests_two_source`` are
:class:`ChainingRequest` views of the same columns.
``tests/csd/test_draw_oracle.py`` keeps the scalar draw as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ChainingRequest", "LocalityWorkload", "MAX_OBJECTS"]

_WORD = 1 << 32  # one draw word: numpy's bounded draws below 2**32 use 32 bits
_LOW = _WORD - 1
#: Arrays must hold fewer objects than this.  From here on the offset range
#: ``2 * spread + 1`` can pass 2**32, where numpy leaves the 32-bit method
#: :meth:`LocalityWorkload.draw` reproduces.
MAX_OBJECTS = 1 << 31
#: Offset tries per source before the walk to the nearest distinct position.
_TRIES = 64


@dataclass(frozen=True)
class ChainingRequest:
    """One element of a datapath configuration: chain ``source → sink``.

    The paper's Figure 3 uses the one-source model; the two-source model
    (a binary operator's second operand) populates ``source2``.
    """

    sink: int
    source: int
    source2: Optional[int] = None

    @property
    def span_length(self) -> int:
        """Dependency distance in array positions (primary source)."""
        return abs(self.sink - self.source)

    @property
    def sources(self) -> tuple:
        """All sources, one or two."""
        if self.source2 is None:
            return (self.source,)
        return (self.source, self.source2)


def _next_true(ok: np.ndarray, index: np.ndarray) -> np.ndarray:
    """For every position ``p``, the first ``q >= p`` where ``ok`` holds;
    the last position (which must not hold) where none does."""
    at = np.where(ok, index, len(ok) - 1)
    return np.minimum.accumulate(at[::-1])[::-1]


class LocalityWorkload:
    """Generates random datapath configurations with controlled locality.

    Parameters
    ----------
    n_objects:
        Array size N (the paper sweeps 16–256).
    locality:
        Knob in ``[0, 1]``; 1 = maximally local, 0 = fully random.
    seed:
        Seed for the underlying :class:`numpy.random.Generator`.
    """

    def __init__(self, n_objects: int, locality: float, seed: Optional[int] = None):
        if n_objects < 2:
            raise ValueError("need at least two objects")
        if n_objects >= MAX_OBJECTS:
            raise ValueError(f"need fewer than {MAX_OBJECTS} objects")
        if not 0.0 <= locality <= 1.0:
            raise ValueError("locality must be in [0, 1]")
        self.n_objects = n_objects
        self.locality = locality
        self.spread = max(1, round((1.0 - locality) * n_objects))
        self._rng = np.random.default_rng(seed)

    def requests(self, n_requests: Optional[int] = None) -> List[ChainingRequest]:
        """One datapath configuration of ``n_requests`` chaining requests.

        Defaults to ``n_objects - 1`` requests — every object except the
        first configured once as a sink, matching a fully configured
        linear datapath.
        """
        return _views(self.draw(n_requests))

    def requests_two_source(
        self, n_requests: Optional[int] = None
    ) -> List[ChainingRequest]:
        """The two-source model §2.6.2 sets aside: each sink chains two
        independently drawn, locality-controlled sources (a binary
        operator's operands).  Channel demand roughly doubles, which is
        why the paper evaluates the one-source model first.
        """
        return _views(self.draw(n_requests, two_source=True))

    def draw(
        self, n_requests: Optional[int] = None, two_source: bool = False
    ) -> Tuple[np.ndarray, ...]:
        """The requests of :meth:`requests` (or, with ``two_source``,
        :meth:`requests_two_source`) as int64 columns: ``(sinks, sources)``
        or ``(sinks, sources, sources2)``, row ``t`` being request ``t``.

        The columns come from one bulk tape of the generator's 32-bit
        words, and the generator is left where the scalar draws would
        leave it.
        """
        if n_requests is None:
            n_requests = self.n_objects - 1
        if n_requests < 1:
            raise ValueError("need at least one request")
        n_sources = 2 if two_source else 1
        rng = self._rng
        start = rng.bit_generator.state
        # one word per sink and at most about 1.5 per source (an offset
        # landing on the sink is redrawn); tiny arrays can need more
        size = n_requests * (1 + 2 * n_sources) + 64
        while True:
            tape = rng.integers(0, _WORD, size=size, dtype=np.uint32)
            try:
                columns, used = self._columns(tape, n_requests, n_sources)
                break
            except IndexError:  # the draw outran the tape: draw a longer one
                rng.bit_generator.state = start
                size *= 2
        # rewind, then consume exactly the words the requests used
        rng.bit_generator.state = start
        rng.integers(0, _WORD, size=used, dtype=np.uint32)
        return columns

    def _columns(
        self, tape: np.ndarray, n_requests: int, n_sources: int
    ) -> Tuple[Tuple[np.ndarray, ...], int]:
        """The request columns a word tape yields, and how many words
        they used.

        Each value is Lemire's bounded draw, the one numpy's scalar
        ``integers(low, high)`` makes for a range of ``width`` below
        2**32: ``m = word * width`` is redrawn while its low 32 bits fall
        below ``2**32 % width``, and the value is ``m >> 32``.  A sink is
        uniform in ``[0, N)``; each source retries its clamped offset up
        to 64 times until it differs from the sink, then walks to the
        nearest distinct position (the pathological corner of a tiny
        array whose clamp target is the sink).

        Both bounded draws are evaluated at every tape position at once.
        For a sink strictly inside ``(0, N-1)`` an offset differs from
        the sink exactly when it is nonzero, so such a request is its
        sink's next accepted word, then for each source the next
        accepted nonzero offset (unless 64 accepted tries come first):
        the position where the next request starts follows from the
        position where this one starts in a few array lookups.  The
        requests are chained through that array; a request it cannot
        chain (a sink at either end, the 64-try fallback, the end of the
        tape) is resolved on its own, and raises ``IndexError`` when it
        runs off the tape.
        """
        n = self.n_objects
        last = n - 1
        spread = self.spread
        width = 2 * spread + 1
        words = tape.astype(np.uint64)
        size = len(words) - 1  # the last word stands past the tape: no draw accepts it
        index = np.arange(len(words))
        m = words * np.uint64(n)
        sink_ok = (m & _LOW) >= _WORD % n
        sink_val = (m >> 32).view(np.int64)
        m = words * np.uint64(width)
        off_ok = (m & _LOW) >= _WORD % width
        off_val = (m >> 32).view(np.int64)  # offset + spread
        sink_ok[size] = off_ok[size] = False
        next_sink = _next_true(sink_ok, index)
        # from position ``s``: the next accepted nonzero offset, if at
        # most 64 accepted tries reach it, else -1
        nonzero = _next_true(off_ok & (off_val != spread), index)
        counted = np.cumsum(off_ok)
        tries = counted[nonzero] - counted + off_ok
        found = np.where((nonzero < size) & (tries <= _TRIES), nonzero, -1)
        # per sink position: where its last source's word lies, or -1
        inner = sink_ok & (sink_val > 0) & (sink_val < last)
        after = np.append(found[1:], -1)  # found[s + 1]
        ends = [np.where(inner, after, -1)]
        for _ in range(n_sources - 1):
            ends.append(np.where(ends[-1] >= 0, found[ends[-1] + 1], -1))
        # next request's start per start position; 0 (never a next start,
        # which lies past a sink and a source) marks one to resolve alone
        hop = (ends[-1] + 1)[next_sink].tolist()

        def alone(p: int) -> Tuple[List[int], int]:
            """The request starting at position ``p``, resolved word by
            word, and the position after it."""
            p = int(next_sink[p])
            if p == size:
                raise IndexError("the draw outran the tape")
            sink = int(sink_val[p])
            row = [sink]
            for _ in range(n_sources):
                for _ in range(_TRIES):
                    p += 1
                    while p < size and not off_ok[p]:
                        p += 1
                    if p == size:
                        raise IndexError("the draw outran the tape")
                    source = min(max(sink + int(off_val[p]) - spread, 0), last)
                    if source != sink:
                        break
                else:
                    source = sink + 1 if sink < last else sink - 1
                row.append(source)
            return row, p + 1

        starts: List[int] = []
        odd: List[Tuple[int, List[int]]] = []
        p = 0
        for t in range(n_requests):
            starts.append(p)
            h = hop[p]
            if not h:
                row, h = alone(p)
                odd.append((t, row))
            p = h

        at = next_sink[starts]
        sinks = sink_val[at]
        columns = [sinks]
        for end in ends:
            source = sinks + (off_val[end[at]] - spread)
            columns.append(np.minimum(np.maximum(source, 0), last))
        for t, row in odd:
            for column, value in zip(columns, row):
                column[t] = value
        return tuple(columns), p

    def realized_locality(
        self, sinks: Sequence[int], sources: Sequence[int]
    ) -> float:
        """Mean dependency distance normalised by N — the measured
        locality of a generated configuration (lower = more local), from
        its sink and primary-source columns."""
        if len(sinks) == 0:
            return 0.0
        distance = np.abs(np.subtract(sinks, sources))
        return float(np.mean(distance)) / self.n_objects


def _views(columns: Tuple[np.ndarray, ...]) -> List[ChainingRequest]:
    """One :class:`ChainingRequest` per row of :meth:`LocalityWorkload.draw`'s
    columns."""
    return [ChainingRequest(*row) for row in zip(*(c.tolist() for c in columns))]
