"""The global configuration data stream (paper sections 2.1, 2.4).

"To configure an application datapath, chaining between operators is
defined through the global configuration data which consists of a sink
object ID and source IDs.  Therefore, in a global configuration data
stream, the dependency is represented by the ID."

A stream is an ordered sequence of :class:`ConfigElement`; a pointer
(updated by the pipeline's first stage) walks it.  Because elements name
objects by ID, the stream *is* the dependency structure — the
"dependency distance" the CACHE model reasons about is the distance (in
elements) since an ID was last referenced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import StreamFormatError

__all__ = ["ConfigElement", "ConfigStream"]


@dataclass(frozen=True)
class ConfigElement:
    """One element: a sink object ID and the source IDs feeding it."""

    sink: int
    sources: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.sink < 0:
            raise StreamFormatError("sink ID must be non-negative")
        if any(s < 0 for s in self.sources):
            raise StreamFormatError("source IDs must be non-negative")
        if self.sink in self.sources:
            raise StreamFormatError(
                f"element chains object {self.sink} to itself"
            )

    @property
    def referenced_ids(self) -> Tuple[int, ...]:
        """All object IDs this element touches, sink first."""
        return (self.sink, *self.sources)


class ConfigStream:
    """An ordered global configuration data stream with its pointer."""

    def __init__(self, elements: Sequence[ConfigElement] = ()) -> None:
        self._elements: List[ConfigElement] = list(elements)
        self.pointer = 0

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[ConfigElement]:
        return iter(self._elements)

    def __getitem__(self, index: int) -> ConfigElement:
        return self._elements[index]

    def append(self, element: ConfigElement) -> None:
        self._elements.append(element)

    # -- the pointer-update / request-fetch interface -------------------------

    @property
    def exhausted(self) -> bool:
        return self.pointer >= len(self._elements)

    def fetch(self) -> ConfigElement:
        """Fetch the element at the pointer and advance it (stages 1-2).

        Raises
        ------
        StreamFormatError
            When fetching past the end of the stream.
        """
        if self.exhausted:
            raise StreamFormatError("configuration stream exhausted")
        element = self._elements[self.pointer]
        self.pointer += 1
        return element

    def rewind(self) -> None:
        """Reset the pointer (re-run the stream)."""
        self.pointer = 0

    def insert_at_pointer(self, elements: Sequence[ConfigElement]) -> None:
        """Insert elements at the pointer — the cache-miss path: "Global
        configuration data stream for object cache-miss is inserted at
        this [request] stage" (section 2.2)."""
        self._elements[self.pointer : self.pointer] = list(elements)

    # -- analysis helpers --------------------------------------------------

    def reference_trace(self) -> List[int]:
        """Flatten to the object-ID reference trace (for the CACHE model)."""
        trace: List[int] = []
        for el in self._elements:
            trace.extend(el.referenced_ids)
        return trace

    def dependency_distances(self) -> List[int]:
        """Distance (in stream elements) between each source reference and
        the element that last produced (sank to) that ID.

        "The dependency distance can be observed by an object code showing
        the object IDs" — unreferenced-before sources get distance 0
        (first use).
        """
        last_sink: Dict[int, int] = {}
        distances: List[int] = []
        for idx, el in enumerate(self._elements):
            for src in el.sources:
                if src in last_sink:
                    distances.append(idx - last_sink[src])
            last_sink[el.sink] = idx
        return distances

    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[int, Sequence[int]]]) -> "ConfigStream":
        """Build from ``[(sink, [sources...]), ...]`` shorthand."""
        return cls([ConfigElement(s, tuple(srcs)) for s, srcs in pairs])
