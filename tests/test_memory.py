"""Tests for the simulated flat memory (repro.rvv.memory)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import AlignmentError, AllocationError, MemoryError_
from repro.rvv.memory import LINE_BYTES, Memory


@pytest.fixture
def mem():
    return Memory(size_bytes=1 << 20)


class TestAlloc:
    def test_alloc_is_line_aligned_by_default(self, mem):
        a = mem.alloc(10)
        b = mem.alloc(10)
        assert a % LINE_BYTES == 0
        assert b % LINE_BYTES == 0
        assert b >= a + 10

    def test_alloc_respects_custom_alignment(self, mem):
        a = mem.alloc(4, align=4096)
        assert a % 4096 == 0

    def test_alloc_zero_is_legal(self, mem):
        a = mem.alloc(0)
        assert a >= mem.base

    def test_exhaustion_raises(self):
        m = Memory(size_bytes=1 << 12)
        with pytest.raises(AllocationError):
            m.alloc(1 << 20)

    def test_negative_size_rejected(self, mem):
        with pytest.raises(AllocationError):
            mem.alloc(-1)

    def test_bad_alignment_rejected(self, mem):
        with pytest.raises(AlignmentError):
            mem.alloc(8, align=3)

    def test_allocations_do_not_overlap(self, mem):
        spans = []
        for n in [1, 63, 64, 65, 100, 4096]:
            a = mem.alloc(n)
            spans.append((a, a + n))
        spans.sort()
        for (s0, e0), (s1, _) in zip(spans, spans[1:]):
            assert e0 <= s1

    def test_bytes_allocated_tracks_requests(self, mem):
        mem.alloc(100)
        mem.alloc(28)
        assert mem.bytes_allocated == 128


class TestTypedAccess:
    def test_f32_roundtrip(self, mem):
        a = mem.alloc_f32(16)
        data = np.arange(16, dtype=np.float32)
        mem.write_f32(a, data)
        np.testing.assert_array_equal(mem.read_f32(a, 16), data)

    def test_view_is_zero_copy(self, mem):
        a = mem.alloc_f32(4)
        v = mem.view(a, 4, np.float32)
        v[:] = 7.0
        np.testing.assert_array_equal(mem.read_f32(a, 4), np.full(4, 7.0, np.float32))

    def test_out_of_bounds_read_raises(self, mem):
        with pytest.raises(MemoryError_):
            mem.view(mem.base + mem.size - 2, 4, np.float32)

    def test_below_base_raises(self, mem):
        with pytest.raises(MemoryError_):
            mem.view(0, 4, np.float32)

    def test_misaligned_view_raises(self, mem):
        a = mem.alloc_f32(4)
        with pytest.raises(AlignmentError):
            mem.view(a + 1, 1, np.float32)


class TestGatherScatter:
    def test_gather_matches_direct_reads(self, mem):
        a = mem.alloc_f32(32)
        data = np.arange(32, dtype=np.float32) * 0.5
        mem.write_f32(a, data)
        offs = np.array([0, 4, 60, 124, 8], dtype=np.int64)
        got = mem.gather_f32(a, offs)
        np.testing.assert_array_equal(got, data[offs // 4])

    def test_scatter_then_gather_roundtrip(self, mem):
        a = mem.alloc_f32(16)
        offs = np.array([0, 8, 16, 24], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        mem.scatter_f32(a, offs, vals)
        np.testing.assert_array_equal(mem.gather_f32(a, offs), vals)

    def test_empty_gather(self, mem):
        a = mem.alloc_f32(4)
        assert mem.gather_f32(a, np.empty(0, dtype=np.int64)).size == 0

    def test_misaligned_gather_raises(self, mem):
        a = mem.alloc_f32(4)
        with pytest.raises(AlignmentError):
            mem.gather_f32(a, np.array([2], dtype=np.int64))

    def test_scatter_length_mismatch(self, mem):
        a = mem.alloc_f32(4)
        with pytest.raises(MemoryError_):
            mem.scatter_f32(a, np.array([0, 4]), np.array([1.0], dtype=np.float32))

    def test_gather_with_unaligned_memory_base(self):
        m = Memory(1024, base=4098)
        a = m.alloc_f32(4, align=4)
        m.write_f32(a, np.array([1, 2, 3, 4], dtype=np.float32))
        last = (m.base + m.size - 4) // 4 * 4  # last whole aligned word
        m.write_f32(last, np.array([9], dtype=np.float32))
        offs = np.array([12, 0, 4, 4, last - a], dtype=np.int64)
        np.testing.assert_array_equal(m.gather_f32(a, offs), [4, 1, 2, 2, 9])
        with pytest.raises(MemoryError_):
            m.gather_f32(a, np.array([last - a + 4], dtype=np.int64))
        m.scatter_f32(a, offs[[0, 2, 4]], np.array([7, 8, 6], dtype=np.float32))
        np.testing.assert_array_equal(m.read_f32(a, 4), [1, 8, 3, 7])
        np.testing.assert_array_equal(m.read_f32(last, 1), [6])
        assert m._buf[a - m.base - 2 : a - m.base].tolist() == [0, 0]
        with pytest.raises(MemoryError_):
            m.scatter_f32(a, np.array([last - a + 4], dtype=np.int64),
                          np.ones(1, dtype=np.float32))
        with pytest.raises(AlignmentError):
            m.scatter_f32(a, np.array([2], dtype=np.int64),
                          np.ones(1, dtype=np.float32))

    def test_gather_out_of_bounds(self, mem):
        a = mem.alloc_f32(4)
        with pytest.raises(MemoryError_):
            mem.gather_f32(a, np.array([mem.size + 64], dtype=np.int64))

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=64))
    def test_gather_property(self, idx_elems):
        m = Memory(size_bytes=1 << 16)
        a = m.alloc_f32(256)
        data = np.arange(256, dtype=np.float32)
        m.write_f32(a, data)
        offs = np.asarray(idx_elems, dtype=np.int64) * 4
        np.testing.assert_array_equal(m.gather_f32(a, offs), data[idx_elems])


class TestStridedView:
    def test_forward_stride(self, mem):
        a = mem.alloc_f32(64)
        data = np.arange(64, dtype=np.float32)
        mem.write_f32(a, data)
        v = mem.strided_view_f32(a, 8, 16)  # every 4th element
        np.testing.assert_array_equal(np.asarray(v), data[::4][:8])

    def test_strided_write_through(self, mem):
        a = mem.alloc_f32(16)
        mem.write_f32(a, np.zeros(16, dtype=np.float32))
        v = mem.strided_view_f32(a, 4, 16)
        v[:] = np.array([1, 2, 3, 4], dtype=np.float32)
        got = mem.read_f32(a, 16)
        np.testing.assert_array_equal(got[::4], [1, 2, 3, 4])
        assert np.count_nonzero(got) == 4

    def test_single_element(self, mem):
        a = mem.alloc_f32(1)
        mem.write_f32(a, np.array([5.0], dtype=np.float32))
        v = mem.strided_view_f32(a, 1, 64)
        assert float(np.asarray(v)[0]) == 5.0

    def test_misaligned_stride_rejected(self, mem):
        a = mem.alloc_f32(8)
        with pytest.raises(AlignmentError):
            mem.strided_view_f32(a, 2, 6)

    def test_oob_strided_rejected(self, mem):
        a = mem.alloc_f32(8)
        with pytest.raises(MemoryError_):
            mem.strided_view_f32(a, 10**6, 64)
