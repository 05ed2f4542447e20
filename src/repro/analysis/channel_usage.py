"""Channel-usage summaries and the §2.7 locality decomposition.

"The number of channels required for a dynamic CSD network is
determined by the spatial locality, for deciding the dependency
distance, the temporal locality indicating how frequently communicated,
and the communication orders to consume the channels that decides the
communication path allocation on channels."

:func:`locality_decomposition` measures those three determinants for a
request sequence; :func:`order_sensitivity` quantifies the third one
directly by re-allocating the *same* request multiset in shuffled
orders and reporting the channel-count spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.csd.dynamic_csd import DynamicCSDNetwork
from repro.csd.locality import ChainingRequest
from repro.csd.simulator import SimulationResult

__all__ = [
    "ChannelUsageSummary",
    "summarize_series",
    "locality_decomposition",
    "order_sensitivity",
]


@dataclass(frozen=True)
class ChannelUsageSummary:
    """Aggregates one Figure 3 curve (fixed N, locality swept)."""

    n_objects: int
    max_used: int
    min_used: int
    max_fraction: float
    half_n_sufficient: bool
    never_used_full_n: bool


def summarize_series(series: Sequence[SimulationResult]) -> ChannelUsageSummary:
    """Summarise one locality-swept curve against the paper's claims.

    Raises
    ------
    ValueError
        On an empty series or mixed array sizes.
    """
    if not series:
        raise ValueError("empty series")
    sizes = {r.n_objects for r in series}
    if len(sizes) != 1:
        raise ValueError(f"series mixes array sizes {sizes}")
    n = sizes.pop()
    used = [r.used_channels for r in series]
    return ChannelUsageSummary(
        n_objects=n,
        max_used=max(used),
        min_used=min(used),
        max_fraction=max(used) / n,
        half_n_sufficient=max(used) <= n // 2 + max(1, n // 16),
        never_used_full_n=max(used) < n,
    )


def locality_decomposition(
    requests: Sequence[ChainingRequest], n_objects: int
) -> Dict[str, float]:
    """The three §2.7 channel-demand determinants of a request sequence.

    Returns
    -------
    dict with:
    ``spatial_locality``
        1 − mean dependency distance / N (1 = all neighbours).
    ``temporal_locality``
        Fraction of requests repeating an earlier (source, sink) pair —
        repeats reuse an existing chain instead of a new channel.
    ``request_count``
        The raw communication-order length (demand scales with it).
    """
    if n_objects < 2:
        raise ValueError("need at least two objects")
    if not requests:
        return {
            "spatial_locality": 1.0,
            "temporal_locality": 0.0,
            "request_count": 0,
        }
    spans = [r.span_length for r in requests]
    seen: set = set()
    repeats = 0
    for r in requests:
        key = (r.source, r.sink)
        if key in seen:
            repeats += 1
        seen.add(key)
    return {
        "spatial_locality": 1.0 - float(np.mean(spans)) / n_objects,
        "temporal_locality": repeats / len(requests),
        "request_count": len(requests),
    }


def order_sensitivity(
    requests: Sequence[ChainingRequest],
    n_objects: int,
    n_shuffles: int = 10,
    seed: int = 0,
) -> Tuple[int, int]:
    """Channel demand of the same request multiset under shuffled orders.

    Returns ``(min_used, max_used)`` across the shuffles — the §2.7
    "communication orders" effect isolated from spatial and temporal
    locality (which shuffling preserves).
    """
    if n_shuffles < 1:
        raise ValueError("need at least one shuffle")
    rng = np.random.default_rng(seed)
    counts: List[int] = []
    order = list(requests)
    for i in range(n_shuffles):
        if i > 0:
            rng.shuffle(order)
        net = DynamicCSDNetwork(n_objects, n_channels=n_objects)
        for req in order:
            net.connect(req.source, req.sink)
        counts.append(net.used_channels())
    return min(counts), max(counts)
