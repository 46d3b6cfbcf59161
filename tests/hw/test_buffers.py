"""Unit tests for the on-chip buffers."""

import pytest

from repro.errors import SimulationError
from repro.hw.buffers import Buffer


class TestBuffer:
    @pytest.fixture
    def buffer(self):
        return Buffer("data_buffer", size_kb=64, word_bits=8, bandwidth_words=16)

    def test_capacity(self, buffer):
        assert buffer.capacity_words == 64 * 1024

    def test_read_cycles_rounds_up(self, buffer):
        assert buffer.read_cycles(16) == 1
        assert buffer.read_cycles(17) == 2

    def test_counters_accumulate(self, buffer):
        buffer.read_cycles(100)
        buffer.write_cycles(50)
        assert buffer.reads == 100
        assert buffer.writes == 50

    def test_reset_counters(self, buffer):
        buffer.read_cycles(10)
        buffer.reset_counters()
        assert buffer.reads == 0

    def test_negative_words_rejected(self, buffer):
        with pytest.raises(SimulationError):
            buffer.read_cycles(-1)

    def test_wide_words_capacity(self):
        wide = Buffer("acc", size_kb=1, word_bits=25, bandwidth_words=4)
        assert wide.capacity_words == 1024 * 8 // 25

