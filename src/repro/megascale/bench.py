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
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.csd.dynamic_csd import DynamicCSDNetwork
from repro.csd.locality import LocalityWorkload
from repro.errors import ChannelAllocationError
from repro.megascale.kernel import VectorCSDKernel, attempt_spans

__all__ = ["measure_kernel_speedup"]


def _resolve_live(n_objects: int, lo: np.ndarray, hi: np.ndarray) -> List[int]:
    net = DynamicCSDNetwork(n_objects, n_channels=n_objects)
    grants: List[int] = []
    for a, b in zip(lo.tolist(), hi.tolist()):
        try:
            grants.append(net.connect(a, b).channel)
        except ChannelAllocationError:
            grants.append(-1)
    return grants


def _resolve_vector(n_objects: int, lo: np.ndarray, hi: np.ndarray) -> List[int]:
    kern = VectorCSDKernel(n_objects, n_objects - 1)
    return kern.grant_many(lo, hi).tolist()


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
    trial_spans: List[Tuple[np.ndarray, np.ndarray]] = []
    for locality in localities:
        for trial in range(n_trials):
            workload = LocalityWorkload(
                n_objects, locality, seed=seed + 1000 * trial
            )
            lo, hi, _ = attempt_spans(*workload.draw())
            trial_spans.append((lo, hi))

    t0 = time.perf_counter()
    live_grants = [_resolve_live(n_objects, lo, hi) for lo, hi in trial_spans]
    live_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    vector_grants = [
        _resolve_vector(n_objects, lo, hi) for lo, hi in trial_spans
    ]
    kernel_s = time.perf_counter() - t0

    return {
        "n_objects": n_objects,
        "localities": list(localities),
        "trials_per_locality": n_trials,
        "attempts": sum(len(lo) for lo, _ in trial_spans),
        "identical": live_grants == vector_grants,
        "live_s": live_s,
        "kernel_s": kernel_s,
        "kernel_speedup": (live_s / kernel_s) if kernel_s > 0 else float("inf"),
    }
