"""Self-profiling: stage timers for the engine and kernel fast paths.

The fast paths (cold-trial resolution, vector kernel batches, cached
replay, pool dispatch) are exactly the places where a ``Timer`` per call
would distort what it measures.  This module follows the tracer's
zero-cost-when-disabled discipline instead: a :class:`Profiler` guard
that costs one attribute read when off, and a :func:`profile_stage`
context manager that records each stage's wall time into a
``profile.<stage>.seconds`` :class:`~repro.telemetry.metrics.Histogram`
only while profiling is enabled.  Histograms snapshot/merge like every
other instrument, so parallel workers' stage timings fold back into the
parent registry.
"""

from __future__ import annotations

import time

__all__ = ["Profiler", "ProfileStage", "NULL_STAGE"]


class Profiler:
    """The self-profiling switch — one attribute read per guarded site
    while disabled."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.enabled = False


class ProfileStage:
    """Times one ``with`` block into a histogram (seconds).

    Records on exceptional exit too, like :class:`Scope` — a failing
    stage still spent the time.
    """

    __slots__ = ("_histogram", "_t0")

    def __init__(self, histogram) -> None:
        self._histogram = histogram
        self._t0 = 0.0

    def __enter__(self) -> "ProfileStage":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._histogram.observe(time.perf_counter() - self._t0)
        return False


class _NullStage:
    """Shared do-nothing stage returned while profiling is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullStage":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_STAGE = _NullStage()
