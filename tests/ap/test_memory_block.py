"""Unit tests for the memory block (Table 2, sections 2.5 and 3.3)."""

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.ap.memory_block import SRAM_WORDS, MemoryBlock


class TestStorage:
    def test_sram_geometry(self):
        # Table 2: 64 KB SRAM; 64-bit datapath -> 8192 words
        assert SRAM_WORDS == 8192
        mb = MemoryBlock()
        assert mb.data_words + mb.library_words == SRAM_WORDS

    def test_read_write_roundtrip(self):
        mb = MemoryBlock()
        mb.write(100, 0xDEADBEEF)
        assert mb.read(100) == 0xDEADBEEF
        assert mb.reads == 1 and mb.writes == 1

    def test_values_truncate_to_64_bits(self):
        mb = MemoryBlock()
        mb.write(0, 2**64 + 5)
        assert mb.read(0) == 5

    def test_bounds_checked(self):
        mb = MemoryBlock()
        with pytest.raises(CapacityError):
            mb.read(SRAM_WORDS)
        with pytest.raises(CapacityError):
            mb.write(-1, 0)

    def test_library_region_sizing(self):
        mb = MemoryBlock(library_words=1024)
        assert mb.library_words == 1024
        assert mb.data_words == SRAM_WORDS - 1024
        with pytest.raises(CapacityError):
            MemoryBlock(library_words=SRAM_WORDS + 1)


class TestSpillFill:
    def test_fill_then_spill(self):
        mb = MemoryBlock()
        mb.fill(10, [1, 2, 3])
        assert mb.spill(10, 3) == [1, 2, 3]

    def test_fill_respects_data_region(self):
        mb = MemoryBlock(library_words=SRAM_WORDS - 4)  # 4 data words
        mb.fill(0, [1, 2, 3, 4])
        with pytest.raises(CapacityError):
            mb.fill(2, [1, 2, 3])

    def test_spill_bounds(self):
        mb = MemoryBlock()
        with pytest.raises(CapacityError):
            mb.spill(0, -1)


class TestLibraryRegion:
    def test_object_image_roundtrip(self):
        mb = MemoryBlock()
        mb.store_object_image(0, [7, 42])
        assert mb.load_object_image(0) == [7, 42, 0, 0, 0, 0, 0, 0]

    def test_slot_count(self):
        mb = MemoryBlock(library_words=80)
        assert mb.library_slots == 10

    def test_slot_bounds(self):
        mb = MemoryBlock(library_words=16)  # 2 slots
        mb.store_object_image(1, [1])
        with pytest.raises(CapacityError):
            mb.store_object_image(2, [1])
        with pytest.raises(CapacityError):
            mb.load_object_image(-1)

    def test_oversized_image_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryBlock().store_object_image(0, list(range(9)))


class TestSequencer:
    def test_program_and_stream(self):
        mb = MemoryBlock()
        mb.program_sequencer(vector_length=4, loop_count=2)
        gen = mb.address_stream(base=100, stride=2)
        assert list(gen) == [100, 102, 104, 106, 100, 102, 104, 106]
        assert len(gen) == 8

    def test_instruction_register_set(self):
        mb = MemoryBlock()
        mb.program_sequencer(8, 3)
        assert "v8" in mb.instruction_register

    def test_unprogrammed_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryBlock().address_stream()

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryBlock().program_sequencer(0)

    def test_stream_escaping_data_region_raises(self):
        mb = MemoryBlock(library_words=SRAM_WORDS - 8)
        mb.program_sequencer(vector_length=16)
        with pytest.raises(CapacityError):
            list(mb.address_stream(base=0, stride=1))

    def test_streaming_through_memory(self):
        # the typical §2.5 pattern: fill, stream-read, compute, write back
        mb = MemoryBlock()
        data = [float(i) for i in range(8)]
        mb.fill(0, [int(v) for v in data])
        mb.program_sequencer(vector_length=8)
        total = sum(mb.read(a) for a in mb.address_stream(base=0))
        assert total == sum(range(8))
