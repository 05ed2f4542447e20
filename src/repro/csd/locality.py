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
``Generator.integers`` call per sink and per offset try.  Each
:meth:`LocalityWorkload.requests` or ``requests_two_source`` call draws
them from one bulk tape of the generator's 32-bit words instead,
because a scalar call costs more than its arithmetic, and leaves the
generator where the scalar calls would.  ``tests/csd/test_draw_oracle.py``
keeps the scalar draw as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["ChainingRequest", "LocalityWorkload"]

_WORD = 1 << 32  # one draw word: numpy's bounded draws below 2**32 use 32 bits
_LOW = _WORD - 1
#: From this ``n_objects`` on, the offset range ``2 * spread + 1`` can pass
#: 2**32, where numpy leaves the 32-bit method ``_resolve`` reproduces.
_MAX_OBJECTS = 1 << 31


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
        if n_objects >= _MAX_OBJECTS:
            raise ValueError(f"need fewer than {_MAX_OBJECTS} objects")
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
        if n_requests is None:
            n_requests = self.n_objects - 1
        if n_requests < 1:
            raise ValueError("need at least one request")
        return self._draw(n_requests, 1)

    def requests_two_source(
        self, n_requests: Optional[int] = None
    ) -> List[ChainingRequest]:
        """The two-source model §2.6.2 sets aside: each sink chains two
        independently drawn, locality-controlled sources (a binary
        operator's operands).  Channel demand roughly doubles, which is
        why the paper evaluates the one-source model first.
        """
        if n_requests is None:
            n_requests = self.n_objects - 1
        if n_requests < 1:
            raise ValueError("need at least one request")
        return self._draw(n_requests, 2)

    def _draw(self, n_requests: int, n_sources: int) -> List[ChainingRequest]:
        """Draw ``n_requests`` requests of ``n_sources`` sources each from
        one bulk tape of the generator's 32-bit words, leaving the
        generator where the scalar draws would leave it."""
        rng = self._rng
        start = rng.bit_generator.state
        # one word per sink and at most about 1.5 per source (an offset
        # landing on the sink is redrawn); tiny arrays can need more
        size = n_requests * (1 + 2 * n_sources) + 64
        while True:
            tape = rng.integers(0, _WORD, size=size, dtype=np.uint32).tolist()
            try:
                out, used = self._resolve(tape, n_requests, n_sources)
                break
            except IndexError:  # the draw outran the tape: draw a longer one
                rng.bit_generator.state = start
                size *= 2
        # rewind, then consume exactly the words the requests used
        rng.bit_generator.state = start
        rng.integers(0, _WORD, size=used, dtype=np.uint32)
        return out

    def _resolve(
        self, tape: List[int], n_requests: int, n_sources: int
    ) -> Tuple[List[ChainingRequest], int]:
        """The requests a word tape yields, and how many words they used.

        Each value is Lemire's bounded draw, the one numpy's scalar
        ``integers(low, high)`` makes for a range of ``width`` below
        2**32: ``m = word * width`` is redrawn while its low 32 bits fall
        below ``2**32 % width``, and the value is ``m >> 32``.  A sink is
        uniform in ``[0, N)``; each source retries its clamped offset up
        to 64 times until it differs from the sink, then walks to the
        nearest distinct position (the pathological corner of a tiny
        array whose clamp target is the sink).
        """
        n = self.n_objects
        last = n - 1
        spread = self.spread
        width = 2 * spread + 1
        sink_floor = _WORD % n
        offset_floor = _WORD % width
        out: List[ChainingRequest] = []
        i = 0
        for _ in range(n_requests):
            m = tape[i] * n
            i += 1
            while m & _LOW < sink_floor:
                m = tape[i] * n
                i += 1
            sink = m >> 32
            sources = []
            for _ in range(n_sources):
                for _ in range(64):
                    m = tape[i] * width
                    i += 1
                    while m & _LOW < offset_floor:
                        m = tape[i] * width
                        i += 1
                    source = min(max(sink + (m >> 32) - spread, 0), last)
                    if source != sink:
                        break
                else:
                    source = sink + 1 if sink < last else sink - 1
                sources.append(source)
            out.append(ChainingRequest(sink, *sources))
        return out, i

    def realized_locality(self, requests: List[ChainingRequest]) -> float:
        """Mean dependency distance normalised by N — the measured
        locality of a generated configuration (lower = more local)."""
        if not requests:
            return 0.0
        return float(np.mean([r.span_length for r in requests])) / self.n_objects

    def stream(self) -> Iterator[ChainingRequest]:
        """Endless request stream (for long-running simulations)."""
        while True:
            yield from self._draw(1, 1)
