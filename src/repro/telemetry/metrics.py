"""Counters and timers — the primitive telemetry instruments.

A :class:`Counter` is a monotonically increasing event tally (grants,
blocks, rollbacks, flit movements); a :class:`Timer` accumulates wall
time over repeated invocations of one phase (reserve, commit, a Figure 3
trial).  Both are deliberately tiny — a handful of attribute updates —
so they can sit on the simulator's hottest paths without distorting the
measurements they exist to provide.

:class:`Scope` is the context manager that feeds a :class:`Timer`::

    with Scope(registry.timer("fig3.trial")):
        run_trial(...)
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Sequence

__all__ = ["Counter", "Timer", "Histogram", "Scope", "nearest_rank"]


def nearest_rank(ordered: Sequence[Any], p: float, empty: Any = 0) -> Any:
    """Nearest-rank percentile ``p`` (``0 <= p <= 100``) of an ascending
    sequence: its element of rank ``max(1, ceil(len * p / 100))``, or
    ``empty`` when there is none.  Histograms, the SLO windows and the
    service-load report all read percentiles through this one rank."""
    if not ordered:
        return empty
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
    return ordered[int(rank) - 1]


class Counter:
    """A named, monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only count up")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value})"


class Timer:
    """Accumulated wall time and call count for one named phase."""

    __slots__ = ("name", "total_s", "calls")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total_s = 0.0
        self.calls = 0

    def add(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("elapsed time cannot be negative")
        self.total_s += seconds
        self.calls += 1

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0

    def reset(self) -> None:
        self.total_s = 0.0
        self.calls = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timer({self.name!r}, total_s={self.total_s:.6f}, calls={self.calls})"


class Histogram:
    """A named distribution of observations with percentile queries.

    Where a :class:`Timer` answers "how much time, over how many calls",
    a histogram answers "how is it *distributed*" — the p50/p95/p99
    phase latencies the trace analysis reports.  Observations are kept
    raw (a list of floats), so merged worker histograms yield exactly
    the percentiles a serial run would: percentile computation sorts at
    query time and is therefore independent of merge order.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str, values: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.values: List[float] = list(values) if values else []

    def observe(self, value: float) -> None:
        self.values.append(value)

    def extend(self, values: Sequence[float]) -> None:
        self.values.extend(values)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    @property
    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation (two-pass over the raw values,
        so merged worker histograms agree with a serial run exactly)."""
        n = len(self.values)
        if n < 2:
            return 0.0
        mean = self.total / n
        return (sum((v - mean) ** 2 for v in self.values) / n) ** 0.5

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``0 <= p <= 100``."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        return nearest_rank(sorted(self.values), p, empty=0.0)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def reset(self) -> None:
        self.values.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count}, p50={self.p50:.4g})"


class Scope:
    """Context manager timing one block into a :class:`Timer`.

    The elapsed time is recorded whether or not the block raises, so
    failed phases (an aborted scaling worm, a blocked chaining) still
    show up in the per-phase totals.
    """

    __slots__ = ("timer", "_start")

    def __init__(self, timer: Timer) -> None:
        self.timer = timer
        self._start: Optional[float] = None

    def __enter__(self) -> "Scope":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._start is not None
        self.timer.add(time.perf_counter() - self._start)
        self._start = None
