"""Host-speed probes, percentile and spread helpers shared by the
harness and its reports."""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import Dict, List, Sequence, Tuple

#: Probe duration on the reference host.  Normalized timings read as if
#: every probe around them had taken this long.
REFERENCE_PROBE_S = 0.0002

_PROBE_TABLE = {(i % 97, i % 89): i for i in range(1_000)}
_PROBE_KEYS = list(_PROBE_TABLE)


def probe() -> float:
    """Seconds of a fixed piece of interpreter work: tuple hashing and
    dict reads, about 0.2 ms, allocating nothing the collector tracks."""
    start = time.perf_counter()
    total = 0
    for _ in range(4):
        for key in _PROBE_KEYS:
            total += _PROBE_TABLE[key]
    return time.perf_counter() - start


class Meter:
    """Host-speed probes interleaved with the timed work of one round.

    The host's cores switch between a fast and a slow state (about 1.8x
    apart) every few tens of milliseconds to seconds, for minutes at a
    stretch.  The workload runs a probe between ops; the work between
    two probes is normalized by the mean of those two probes, so a
    stretch run in the slow state reads about as long as it would in the
    fast one.
    """

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._lengths: List[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        length = probe()
        self._starts.append(start)
        self._ends.append(start + length)
        self._lengths.append(length)

    def mean_probe(self) -> float:
        return sum(self._lengths) / len(self._lengths)

    def busy(self, lo: float, hi: float) -> Tuple[float, float]:
        """``(raw, normalized)`` seconds of ``[lo, hi]`` outside the
        probes.  A stretch before the first probe or after the last is
        normalized by that one probe."""
        if not self._lengths:
            raise ValueError("no probes to normalize by")
        n = len(self._lengths)
        raw = normalized = 0.0
        # gap j runs from the end of probe j-1 to the start of probe j
        j = bisect.bisect_right(self._starts, lo)
        while j <= n:
            gap_lo = self._ends[j - 1] if j > 0 else -math.inf
            if gap_lo >= hi:
                break
            gap_hi = self._starts[j] if j < n else math.inf
            part = min(hi, gap_hi) - max(lo, gap_lo)
            if part > 0:
                around = self._lengths[max(j - 1, 0):j + 1]
                raw += part
                normalized += part * REFERENCE_PROBE_S / (sum(around) / len(around))
            j += 1
        return raw, normalized


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100))
    return ordered[rank - 1]


def latency_summary(values: Sequence[float], tail: float) -> Dict[str, float]:
    """p50 and the ``tail`` percentile of ``values``, with the sample
    count and how many samples lie beyond the tail (the choosing-metrics
    guide asks for at least ten)."""
    high = percentile(values, tail)
    return {
        "p50": percentile(values, 50),
        "tail": high,
        "count": len(values),
        "beyond_tail": sum(1 for v in values if v > high),
    }


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile distance as a share of the
    median — the statistic a run set is judged by."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else math.inf,
    }
