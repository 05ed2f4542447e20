"""Priority encoder (paper Figure 2).

"The sink object has a priority encoder that decides which channel is
used for the request, several requests can come through surviving such as
already used for other communication (chaining) on each channel.  A grant
signal from the encoder is checked by the sink object..."

The encoder receives the set of channels on which the source's broadcast
request survived (i.e. the channels whose segments along the span are
still chained and unoccupied) and grants exactly one — the
lowest-numbered, as a hardware priority encoder does.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

__all__ = ["PriorityEncoder"]


class PriorityEncoder:
    """Selects one granted channel from a set of surviving requests.

    Parameters
    ----------
    n_channels:
        Width of the encoder (number of request inputs).
    """

    def __init__(self, n_channels: int) -> None:
        if n_channels < 1:
            raise ValueError("encoder needs at least one input")
        self.n_channels = n_channels

    def grant(self, requests: Iterable[int]) -> Optional[int]:
        """Grant the highest-priority (lowest-index) requesting channel.

        Returns ``None`` when no request survived — the caller then
        treats the chaining attempt as blocked.

        Raises
        ------
        ValueError
            If a request index is outside the encoder width.
        """
        best: Optional[int] = None
        for idx in requests:
            if not 0 <= idx < self.n_channels:
                raise ValueError(
                    f"request on channel {idx} outside encoder width {self.n_channels}"
                )
            if best is None or idx < best:
                best = idx
        return best

    def grant_vector(self, request_bits: Sequence[bool]) -> Optional[int]:
        """Bit-vector form: grant the lowest set bit (hardware view)."""
        if len(request_bits) != self.n_channels:
            raise ValueError(
                f"request vector width {len(request_bits)} != {self.n_channels}"
            )
        for idx, bit in enumerate(request_bits):
            if bit:
                return idx
        return None
