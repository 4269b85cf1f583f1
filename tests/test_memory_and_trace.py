"""Unit tests for the Memory model and DynamicTrace."""

import numpy as np
import pytest

from repro.sim import DynamicTrace, Memory, MemoryError_, run_program


class TestMemory:
    def test_data_image_placed_at_base(self):
        memory = Memory(data_image=b"\x01\x02\x03\x04", data_base=0x100,
                        size=0x1000)
        assert memory.read_word(0x100) == 0x04030201

    def test_image_too_large(self):
        with pytest.raises(MemoryError_):
            Memory(data_image=b"x" * 32, data_base=0, size=16)

    def test_word_round_trip_and_masking(self):
        memory = Memory(size=0x100)
        memory.write_word(0x10, 0x1_FFFF_FFFF)
        assert memory.read_word(0x10) == 0xFFFFFFFF

    def test_signed_read(self):
        memory = Memory(size=0x100)
        memory.write_word(0, -5)
        assert memory.read_word_signed(0) == -5

    def test_byte_ops(self):
        memory = Memory(size=0x100)
        memory.write_byte(3, 0x7F2)
        assert memory.read_byte(3) == 0xF2

    def test_double_round_trip(self):
        memory = Memory(size=0x100)
        memory.write_double(8, -0.125)
        assert memory.read_double(8) == -0.125

    def test_read_words(self):
        memory = Memory(size=0x100)
        for index, value in enumerate((10, -20, 30)):
            memory.write_word(index * 4, value)
        assert memory.read_words(0, 3) == [10, -20, 30]

    def test_bounds_checked(self):
        memory = Memory(size=0x100)
        with pytest.raises(MemoryError_):
            memory.read_word(0xFE)
        with pytest.raises(MemoryError_):
            memory.write_byte(0x100, 1)


class TestDynamicTrace:
    def test_length_mismatch_rejected(self, sum_program):
        with pytest.raises(ValueError):
            DynamicTrace(sum_program, [0, 1], [0], [0])

    def test_summary_counts(self, sum_program):
        trace = run_program(sum_program)
        summary = trace.summary()
        assert summary["instructions"] == len(trace)
        # 8 loop iterations: one lw each, plus final sw.
        assert summary["memory_ops"] == 9
        assert summary["branches"] == 8
        assert summary["taken_branches"] == 7

    def test_memory_addresses_in_dynamic_order(self, sum_program):
        trace = run_program(sum_program)
        addresses = trace.memory_addresses()
        base = sum_program.data_symbols["vals"]
        assert list(addresses[:8]) == [base + 4 * i for i in range(8)]

    def test_branch_indices_consistent(self, sum_program):
        trace = run_program(sum_program)
        for position in trace.branch_indices():
            assert trace.taken[position] in (0, 1)
            instr = sum_program.instructions[trace.pcs[position]]
            assert instr.is_cond_branch

    def test_data_footprint(self, sum_program):
        trace = run_program(sum_program)
        # 9 distinct words touched: 8 loads + 1 result store.
        assert trace.data_footprint(granularity=4) == 9

    def test_memory_mask_cached_once(self, sum_program):
        trace = run_program(sum_program)
        assert trace._memory_mask is None  # computed lazily
        mask = trace._mem_mask()
        assert trace._mem_mask() is mask  # every later call reuses it
        assert np.array_equal(mask, trace.addrs >= 0)

    def test_mask_consumers_agree_after_caching(self, sum_program):
        trace = run_program(sum_program)
        indices = trace.memory_indices()
        assert np.array_equal(trace.addrs[indices],
                              trace.memory_addresses())
        assert trace.summary()["memory_ops"] == len(indices)

    def test_save_load_round_trip(self, tmp_path, sum_program):
        trace = run_program(sum_program)
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = DynamicTrace.load(path, sum_program)
        assert np.array_equal(loaded.pcs, trace.pcs)
        assert np.array_equal(loaded.addrs, trace.addrs)
        assert np.array_equal(loaded.taken, trace.taken)


class TestTraceArchive:
    def test_save_compresses(self, tmp_path):
        # Trace archives are always compressed: a repetitive trace
        # takes far less disk than its raw columns.
        pcs = np.tile(np.arange(16, dtype=np.int32), 1024)
        trace = DynamicTrace(None, pcs, np.full(len(pcs), -1),
                             np.full(len(pcs), -1))
        path = tmp_path / "trace.npz"
        trace.save(path)
        raw = trace.pcs.nbytes + trace.addrs.nbytes + trace.taken.nbytes
        assert path.stat().st_size < raw / 10
        loaded = DynamicTrace.load(path, None)
        assert np.array_equal(loaded.pcs, trace.pcs)
