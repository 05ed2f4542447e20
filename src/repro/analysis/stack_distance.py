"""Stack-distance / dependency-distance profiling (paper section 2.4).

"The stack distance is equivalent to the dependency distance in the
CACHE model.  The dependency distance can be observed by an object code
showing the object IDs."

:func:`profile_trace` runs the Mattson analysis over a raw reference
trace; :func:`profile_stream` does the same for a configuration stream
and also reports the stream's dependency distances, making the §2.4
equivalence claim measurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.ap.cache_model import hit_rate_curve, stack_distances
from repro.ap.config_stream import ConfigStream

__all__ = ["DistanceProfile", "profile_trace", "profile_stream"]


@dataclass(frozen=True)
class DistanceProfile:
    """Distance statistics plus the hit-rate curve they imply."""

    references: int
    cold_misses: int
    mean_distance: float
    max_distance: float
    hit_rates: Dict[int, float]

    def required_capacity(self, target_hit_rate: float) -> int:
        """Smallest evaluated capacity meeting the target warm-hit rate.

        Returns the largest evaluated capacity if none suffices.
        """
        if not 0.0 <= target_hit_rate <= 1.0:
            raise ValueError("target must be a probability")
        for cap in sorted(self.hit_rates):
            if self.hit_rates[cap] >= target_hit_rate:
                return cap
        return max(self.hit_rates) if self.hit_rates else 0


def profile_trace(
    trace: Sequence[int], capacities: Sequence[int] = (4, 8, 16, 32, 64, 128)
) -> DistanceProfile:
    """Mattson profile of a raw object-ID reference trace."""
    distances = stack_distances(trace)
    finite = [d for d in distances if not math.isinf(d)]
    return DistanceProfile(
        references=len(distances),
        cold_misses=len(distances) - len(finite),
        mean_distance=float(np.mean(finite)) if finite else 0.0,
        max_distance=float(max(finite)) if finite else 0.0,
        hit_rates=hit_rate_curve(trace, capacities),
    )


def profile_stream(
    stream: ConfigStream, capacities: Sequence[int] = (4, 8, 16, 32, 64, 128)
) -> DistanceProfile:
    """Profile a configuration stream's object-reference behaviour.

    Uses the flattened reference trace (sink then sources per element),
    which is exactly what the pipeline's request stage sees.
    """
    return profile_trace(stream.reference_trace(), capacities)


def dependency_vs_stack_distance(stream: ConfigStream) -> Dict[str, float]:
    """Quantify the §2.4 equivalence: mean dependency distance (stream
    elements) vs mean warm stack distance (objects).

    The two measure the same reuse structure in different units; both
    shrink together as locality rises.
    """
    dep = stream.dependency_distances()
    distances = [
        d for d in stack_distances(stream.reference_trace()) if not math.isinf(d)
    ]
    return {
        "mean_dependency_distance": float(np.mean(dep)) if dep else 0.0,
        "mean_stack_distance": float(np.mean(distances)) if distances else 0.0,
    }
