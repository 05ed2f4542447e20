"""Cold-path speedup measurement: vector kernel vs. the live protocol.

The claim the megascale work rests on is that
:class:`~repro.megascale.kernel.VectorCSDKernel` resolves the *same*
request sequence to the *same* grants as the live
:class:`~repro.csd.dynamic_csd.DynamicCSDNetwork`, only flat-array fast.
This module measures exactly that claim: identical seeded workloads are
resolved once by each backend, the per-attempt grant sequences are
compared element-for-element, and the wallclock ratio is reported.

Scope note: the workload *generation* (one seeded
:class:`~repro.csd.locality.LocalityWorkload` draw per trial) is left
out of both sides of the timing.  Both backends would run the same draw
code, so it adds nothing to the comparison; the measured quantity is
the protocol resolution cost.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.csd.dynamic_csd import DynamicCSDNetwork
from repro.csd.locality import LocalityWorkload
from repro.errors import ChannelAllocationError
from repro.megascale.kernel import VectorCSDKernel, attempt_spans

__all__ = ["measure_kernel_speedup"]


def _resolve_live(
    n_objects: int, spans: List[Tuple[int, int]]
) -> List[Optional[int]]:
    net = DynamicCSDNetwork(n_objects, n_channels=n_objects)
    grants: List[Optional[int]] = []
    for lo, hi in spans:
        try:
            grants.append(net.connect(lo, hi).channel)
        except ChannelAllocationError:
            grants.append(None)
    return grants


def _resolve_vector(
    n_objects: int, spans: List[Tuple[int, int]]
) -> List[Optional[int]]:
    kern = VectorCSDKernel(n_objects, n_objects - 1)
    return kern.grant_many(spans)


def measure_kernel_speedup(
    n_objects: int = 256,
    localities: Tuple[float, ...] = (1.0, 0.5, 0.0),
    n_trials: int = 3,
    seed: int = 42,
) -> Dict[str, Any]:
    """Resolve identical workloads on both backends and compare.

    Returns a dict with the deterministic identity verdict
    (``identical``: every grant of every trial equal) and the wallclock
    ratio ``kernel_speedup`` = live seconds / vector seconds.
    """
    trial_spans: List[Tuple[int, List[Tuple[int, int]]]] = []
    for locality in localities:
        for trial in range(n_trials):
            workload = LocalityWorkload(
                n_objects, locality, seed=seed + 1000 * trial
            )
            spans, _ = attempt_spans(workload.requests())
            trial_spans.append((n_objects, spans))

    t0 = time.perf_counter()
    live_grants = [_resolve_live(n, spans) for n, spans in trial_spans]
    live_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    vector_grants = [_resolve_vector(n, spans) for n, spans in trial_spans]
    kernel_s = time.perf_counter() - t0

    return {
        "n_objects": n_objects,
        "localities": list(localities),
        "trials_per_locality": n_trials,
        "attempts": sum(len(spans) for _, spans in trial_spans),
        "identical": live_grants == vector_grants,
        "live_s": live_s,
        "kernel_s": kernel_s,
        "kernel_speedup": (live_s / kernel_s) if kernel_s > 0 else float("inf"),
    }
