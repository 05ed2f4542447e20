"""The memory block (paper Table 2, sections 2.5 and 3.3).

Table 2 decomposes a memory block into a 32-bit ALU-I (address
computation), four 16-bit ALU-IIs ("used for the vector length,
hardware-loop, and so on"), an instruction register ("used for a
sequencer object"), two 64-bit registers and a 64 KB SRAM.

Three behaviours the rest of the system needs are modelled:

* **storage** — bounds-checked word read/write over the 64 KB SRAM,
  partitioned into a *data* region and a *library* region (the object
  library of §2.5 "is loaded from the library in the memory blocks");
* **spill/fill** — §3.3: while a processor is inactive, "storing a
  global configuration data, storing objects into libraries, spilling
  and filling of data in the memory block are done in this state";
* **sequencing** — a vector-length/hardware-loop register pair driving
  a simple streaming address generator (what the ALU-IIs exist for).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import CapacityError, ConfigurationError

__all__ = ["MemoryBlock", "AddressGenerator"]

#: Table 2 fixes the SRAM at 64 KB; the datapath is 64-bit, so 8K words.
SRAM_BYTES = 64 * 1024
WORD_BYTES = 8
SRAM_WORDS = SRAM_BYTES // WORD_BYTES


class MemoryBlock:
    """One memory block: 64 KB SRAM + sequencer state.

    Parameters
    ----------
    library_words:
        Words at the top of the SRAM reserved for the object library
        (logical-object images); the rest is application data.
    """

    def __init__(self, library_words: int = SRAM_WORDS // 4) -> None:
        if not 0 <= library_words <= SRAM_WORDS:
            raise CapacityError(
                f"library region must fit the {SRAM_WORDS}-word SRAM"
            )
        self.library_base = SRAM_WORDS - library_words
        self._words: List[int] = [0] * SRAM_WORDS
        # sequencer state (instruction register + ALU-II registers)
        self.instruction_register: Optional[str] = None
        self.vector_length = 0
        self.loop_count = 0
        self.reads = 0
        self.writes = 0

    # -- storage -----------------------------------------------------------

    @property
    def data_words(self) -> int:
        """Words available to application data."""
        return self.library_base

    @property
    def library_words(self) -> int:
        return SRAM_WORDS - self.library_base

    def read(self, address: int) -> int:
        """Read one 64-bit word.

        Raises
        ------
        CapacityError
            On an out-of-range address.
        """
        self._check(address)
        self.reads += 1
        return self._words[address]

    def write(self, address: int, value: int) -> None:
        """Write one 64-bit word (value truncated to 64 bits)."""
        self._check(address)
        self.writes += 1
        self._words[address] = value & (2**64 - 1)

    def _check(self, address: int) -> None:
        if not 0 <= address < SRAM_WORDS:
            raise CapacityError(
                f"address {address} outside the {SRAM_WORDS}-word SRAM"
            )

    # -- spill / fill (section 3.3) -------------------------------------------

    def fill(self, base: int, values: List[int]) -> None:
        """Bulk-store ``values`` starting at ``base`` (external fill while
        the owner is inactive)."""
        if base < 0 or base + len(values) > self.data_words:
            raise CapacityError(
                f"fill of {len(values)} words at {base} overruns the "
                f"{self.data_words}-word data region"
            )
        for i, v in enumerate(values):
            self.write(base + i, v)

    def spill(self, base: int, count: int) -> List[int]:
        """Bulk-read ``count`` words starting at ``base``."""
        if base < 0 or count < 0 or base + count > self.data_words:
            raise CapacityError(
                f"spill of {count} words at {base} overruns the "
                f"{self.data_words}-word data region"
            )
        return [self.read(base + i) for i in range(count)]

    # -- library region ---------------------------------------------------

    def store_object_image(self, slot: int, image: List[int]) -> None:
        """Store a logical-object image into library slot ``slot``
        (8 words per slot: operation, init data, configuration bits)."""
        base = self.library_base + slot * 8
        if base + 8 > SRAM_WORDS or slot < 0:
            raise CapacityError(f"library slot {slot} out of range")
        if len(image) > 8:
            raise ConfigurationError("object images are at most 8 words")
        for i in range(8):
            self.write(base + i, image[i] if i < len(image) else 0)

    def load_object_image(self, slot: int) -> List[int]:
        """Load a logical-object image from library slot ``slot``."""
        base = self.library_base + slot * 8
        if base + 8 > SRAM_WORDS or slot < 0:
            raise CapacityError(f"library slot {slot} out of range")
        return [self.read(base + i) for i in range(8)]

    @property
    def library_slots(self) -> int:
        return self.library_words // 8

    # -- sequencer (instruction register + ALU-IIs) ------------------------

    def program_sequencer(self, vector_length: int, loop_count: int = 1) -> None:
        """Set the vector-length / hardware-loop registers (ALU-II use)."""
        if vector_length < 1 or loop_count < 1:
            raise ConfigurationError("vector length and loop count are >= 1")
        self.vector_length = vector_length
        self.loop_count = loop_count
        self.instruction_register = f"stream v{vector_length} x{loop_count}"

    def address_stream(self, base: int = 0, stride: int = 1) -> "AddressGenerator":
        """An address generator over the programmed vector/loop shape."""
        if self.vector_length < 1:
            raise ConfigurationError("sequencer not programmed")
        return AddressGenerator(
            base=base,
            stride=stride,
            vector_length=self.vector_length,
            loop_count=self.loop_count,
            limit=self.data_words,
        )


@dataclass(frozen=True)
class AddressGenerator:
    """Streams SRAM addresses: ``loop_count`` passes over a
    ``vector_length``-element strided vector — the hardware-loop shape
    the ALU-IIs implement."""

    base: int
    stride: int
    vector_length: int
    loop_count: int
    limit: int

    def __iter__(self) -> Iterator[int]:
        for _ in range(self.loop_count):
            addr = self.base
            for _ in range(self.vector_length):
                if not 0 <= addr < self.limit:
                    raise CapacityError(
                        f"address {addr} leaves the data region"
                    )
                yield addr
                addr += self.stride

    def __len__(self) -> int:
        return self.vector_length * self.loop_count
