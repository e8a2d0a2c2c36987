"""Tests for the functional RVV machine (repro.rvv.machine)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    AlignmentError,
    IllegalInstructionError,
    MemoryError_,
    RegisterSpillError,
    VectorStateError,
)
from repro.isa import OpClass
from repro.rvv import Memory, RvvMachine, Tracer, save_trace


@pytest.fixture
def m():
    return RvvMachine(vlen_bits=512, tracer=Tracer(capture=True))


def fill(machine, addr, values):
    machine.memory.write_f32(addr, np.asarray(values, dtype=np.float32))


class TestSetvl:
    def test_grants_min_of_avl_and_vlmax(self, m):
        assert m.setvl(100) == 16  # 512 bits / 32 = 16 lanes
        assert m.setvl(5) == 5

    def test_op_before_setvl_raises(self):
        m2 = RvvMachine(512)
        a = m2.memory.alloc_f32(16)
        with pytest.raises(VectorStateError):
            m2.vle32(0, a)

    def test_lmul_multiplies_vlmax(self, m):
        assert m.setvl(1000, lmul=4) == 64

    def test_vsetvl_recorded(self, m):
        m.setvl(16)
        assert m.tracer.by_class[OpClass.VSETVL].instrs == 1


class TestLoadsStores:
    def test_unit_roundtrip(self, m):
        a = m.memory.alloc_f32(16)
        b = m.memory.alloc_f32(16)
        fill(m, a, np.arange(16))
        m.setvl(16)
        m.vle32(1, a)
        m.vse32(1, b)
        np.testing.assert_array_equal(m.memory.read_f32(b, 16), np.arange(16, dtype=np.float32))

    def test_partial_vl_leaves_tail(self, m):
        a = m.memory.alloc_f32(16)
        b = m.memory.alloc_f32(16)
        fill(m, a, np.arange(16))
        fill(m, b, np.full(16, -1.0))
        m.setvl(4)
        m.vle32(1, a)
        m.vse32(1, b)
        got = m.memory.read_f32(b, 16)
        np.testing.assert_array_equal(got[:4], [0, 1, 2, 3])
        np.testing.assert_array_equal(got[4:], np.full(12, -1.0, np.float32))

    def test_strided_load(self, m):
        a = m.memory.alloc_f32(64)
        fill(m, a, np.arange(64))
        m.setvl(16)
        m.vlse32(2, a, 16)  # stride of 4 elements
        np.testing.assert_array_equal(m.read_f32(2), np.arange(0, 64, 4, dtype=np.float32))

    def test_strided_store(self, m):
        dst = m.memory.alloc_f32(64)
        fill(m, dst, np.zeros(64))
        m.setvl(8)
        m.vfmv_v_f(3, 2.5)
        m.vsse32(3, dst, 32)
        got = m.memory.read_f32(dst, 64)
        np.testing.assert_array_equal(got[::8], np.full(8, 2.5, np.float32))

    def test_indexed_load_quadword_pattern(self, m):
        """The Algorithm 1 pattern: replicate a quad across the vector."""
        a = m.memory.alloc_f32(64)
        fill(m, a, np.arange(64))
        vl = m.setvl(16)
        # Byte offsets 0,4,8,12, 0,4,8,12, ... (quad replication)
        offs = (np.tile(np.arange(4), vl // 4) * 4).astype(np.uint32)
        m.load_index_u32(5, offs)
        m.vluxei32(6, a, 5)
        np.testing.assert_array_equal(m.read_f32(6), np.tile(np.arange(4, dtype=np.float32), 4))

    def test_indexed_store(self, m):
        dst = m.memory.alloc_f32(32)
        fill(m, dst, np.zeros(32))
        m.setvl(4)
        m.load_index_u32(5, np.array([0, 16, 32, 48], dtype=np.uint32))
        m.write_f32(7, [1, 2, 3, 4])
        m.vsuxei32(7, dst, 5)
        got = m.memory.read_f32(dst, 32)
        np.testing.assert_array_equal(got[[0, 4, 8, 12]], [1, 2, 3, 4])


class TestArithmetic:
    def test_vfmacc_vv(self, m):
        m.setvl(8)
        m.write_f32(1, np.full(8, 10.0))
        m.write_f32(2, np.arange(8))
        m.write_f32(3, np.full(8, 2.0))
        m.vfmacc_vv(1, 2, 3)
        np.testing.assert_array_equal(m.read_f32(1), 10.0 + np.arange(8) * 2.0)

    def test_vfmacc_vf(self, m):
        m.setvl(8)
        m.write_f32(1, np.zeros(8))
        m.write_f32(2, np.arange(8))
        m.vfmacc_vf(1, 3.0, 2)
        np.testing.assert_array_equal(m.read_f32(1), 3.0 * np.arange(8, dtype=np.float32))

    def test_vfnmsac_vf(self, m):
        m.setvl(4)
        m.write_f32(1, np.full(4, 10.0))
        m.write_f32(2, np.ones(4))
        m.vfnmsac_vf(1, 4.0, 2)
        np.testing.assert_array_equal(m.read_f32(1), np.full(4, 6.0, np.float32))

    def test_add_sub_mul(self, m):
        m.setvl(4)
        m.write_f32(1, [1, 2, 3, 4])
        m.write_f32(2, [10, 20, 30, 40])
        m.vfadd_vv(3, 1, 2)
        np.testing.assert_array_equal(m.read_f32(3), [11, 22, 33, 44])
        m.vfsub_vv(3, 2, 1)
        np.testing.assert_array_equal(m.read_f32(3), [9, 18, 27, 36])
        m.vfmul_vv(3, 1, 2)
        np.testing.assert_array_equal(m.read_f32(3), [10, 40, 90, 160])
        m.vfmul_vf(3, 1, 0.5)
        np.testing.assert_array_equal(m.read_f32(3), [0.5, 1, 1.5, 2])

    def test_reduction(self, m):
        m.setvl(16)
        m.write_f32(1, np.arange(16))
        assert m.vfredusum(1) == pytest.approx(120.0)

    def test_fma_uses_active_lanes_only(self, m):
        m.setvl(16)
        m.write_f32(1, np.zeros(16))
        m.setvl(4)
        m.write_f32(2, [1, 1, 1, 1])
        m.write_f32(3, [2, 2, 2, 2])
        m.vfmacc_vv(1, 2, 3)
        m.setvl(16)
        got = m.read_f32(1)
        np.testing.assert_array_equal(got[:4], np.full(4, 2.0, np.float32))
        np.testing.assert_array_equal(got[4:], np.zeros(12, np.float32))


class TestSlides:
    def test_slideup_keeps_low_lanes(self, m):
        m.setvl(8)
        m.write_f32(1, [0, 1, 2, 3, 4, 5, 6, 7])
        m.write_f32(2, [90, 91, 92, 93, 94, 95, 96, 97])
        m.vslideup_vx(2, 1, 4)
        np.testing.assert_array_equal(m.read_f32(2), [90, 91, 92, 93, 0, 1, 2, 3])

    def test_slideup_overlap_raises_in_strict_mode(self):
        m = RvvMachine(512, strict=True)
        m.setvl(8)
        with pytest.raises(VectorStateError):
            m.vslideup_vx(1, 1, 4)

    def test_slideup_overlap_computes_through_by_default(self, m):
        """Permissive default: the reserved overlap executes on a source
        snapshot (so replays stay deterministic); the analysis overlap
        pass is what flags it."""
        m.setvl(8)
        m.write_f32(1, [0, 1, 2, 3, 4, 5, 6, 7])
        m.vslideup_vx(1, 1, 4)
        np.testing.assert_array_equal(m.read_f32(1), [0, 1, 2, 3, 0, 1, 2, 3])

    def test_slideup_quad_replication_sequence(self, m):
        """The Algorithm 2 workaround: replicate a quad with slides.

        Uses linear slide amounts 4, 8, ..., vl/2 with a ping-pong
        register pair, which is how the kernel implements it.
        """
        vl = m.setvl(16)
        quad = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        a = m.memory.alloc_f32(4)
        fill(m, a, quad)
        m.setvl(4)
        m.vle32(1, a)
        m.setvl(vl)
        m.vmv_v_v(2, 1)
        for amt in range(4, vl // 2 + 1, 4):
            m.vslideup_vx(2, 1, amt)
            m.vmv_v_v(1, 2)
        np.testing.assert_array_equal(m.read_f32(2), np.tile(quad, vl // 4))

    def test_slidedown_zero_fills(self, m):
        m.setvl(8)
        m.write_f32(1, np.arange(8))
        m.vslidedown_vx(2, 1, 3)
        got = m.read_f32(2)
        np.testing.assert_array_equal(got[:5], [3, 4, 5, 6, 7])

    def test_vrgather(self, m):
        m.setvl(8)
        m.write_f32(1, np.arange(8) * 10)
        m.load_index_u32(3, np.array([7, 6, 5, 4, 3, 2, 1, 0], dtype=np.uint32))
        m.vrgather_vv(2, 1, 3)
        np.testing.assert_array_equal(m.read_f32(2), np.arange(7, -1, -1) * 10.0)

    def test_vrgather_overlap_illegal_in_strict_mode(self):
        m = RvvMachine(512, strict=True)
        m.setvl(8)
        with pytest.raises(VectorStateError):
            m.vrgather_vv(1, 1, 2)


class TestIndexOps:
    def test_vid_vadd_vmul(self, m):
        m.setvl(8)
        m.vid_v(1)
        m.vmul_vx(1, 1, 4)
        m.vadd_vx(1, 1, 100)
        want = 100 + 4 * np.arange(8, dtype=np.uint32)
        got = m.regs.u32(1)[:8]
        np.testing.assert_array_equal(got, want)


class TestRegisterAllocator:
    def test_spill_detection(self, m):
        regs = [m.alloc.alloc() for _ in range(32)]
        with pytest.raises(RegisterSpillError):
            m.alloc.alloc()
        for r in regs:
            m.alloc.free(r)
        assert m.alloc.live_count == 0

    def test_double_free_detected(self, m):
        r = m.alloc.alloc()
        m.alloc.free(r)
        with pytest.raises(RegisterSpillError):
            m.alloc.free(r)

    def test_scoped_frees_on_exception(self, m):
        with pytest.raises(ValueError):
            with m.alloc.scoped(4):
                raise ValueError("boom")
        assert m.alloc.live_count == 0

    def test_high_water_mark(self, m):
        with m.alloc.scoped(5):
            pass
        assert m.alloc.high_water >= 5


class TestTracing:
    def test_flop_accounting(self, m):
        m.setvl(16)
        m.write_f32(1, np.zeros(16))
        m.write_f32(2, np.ones(16))
        m.write_f32(3, np.ones(16))
        m.vfmacc_vv(1, 2, 3)  # 2 flops x 16 lanes
        m.vfadd_vv(1, 2, 3)  # 1 flop x 16 lanes
        assert m.tracer.total_flops == 48

    def test_byte_accounting(self, m):
        a = m.memory.alloc_f32(16)
        m.setvl(16)
        m.vle32(1, a)
        m.vse32(1, a)
        st_ = m.tracer.by_class
        assert st_[OpClass.VLOAD_UNIT].bytes_loaded == 64
        assert st_[OpClass.VSTORE_UNIT].bytes_stored == 64

    def test_mem_events_capture_addresses(self, m):
        a = m.memory.alloc_f32(16)
        m.setvl(16)
        m.vle32(1, a)
        events = list(m.tracer.mem_events())
        assert events[0].base == a
        assert events[0].elems == 16
        lines = events[0].line_addresses(64)
        assert lines.size == 1  # 64 bytes = exactly one line

    def test_line_addresses_span_lines(self, m):
        a = m.memory.alloc_f32(64)
        m.setvl(16)
        m.vlse32(1, a, 64)  # one element per line
        ev = list(m.tracer.mem_events())[-1]
        assert ev.line_addresses(64).size == 16

    def test_counts_dict(self, m):
        a = m.memory.alloc_f32(16)
        m.setvl(16)
        m.vle32(1, a)
        c = m.tracer.counts()
        assert c["vload_unit"] == 1
        assert c["vsetvl"] == 1


class TestVlenScaling:
    @pytest.mark.parametrize("vlen", [128, 256, 512, 1024, 2048, 4096, 8192, 16384])
    def test_lane_count_tracks_vlen(self, vlen):
        mach = RvvMachine(vlen_bits=vlen)
        assert mach.setvl(10**9) == vlen // 32

    @given(
        vlen=st.sampled_from([128, 512, 2048]),
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_strip_mined_copy_is_identity(self, vlen, n, seed):
        """Property: a vsetvl strip-mined copy loop moves any array intact."""
        mach = RvvMachine(vlen_bits=vlen)
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(n).astype(np.float32)
        src = mach.memory.alloc_f32(n)
        dst = mach.memory.alloc_f32(n)
        mach.memory.write_f32(src, data)
        done = 0
        while done < n:
            vl = mach.setvl(n - done)
            mach.vle32(1, src + 4 * done)
            mach.vse32(1, dst + 4 * done)
            done += vl
        np.testing.assert_array_equal(mach.memory.read_f32(dst, n), data)


class TestIndexScratchAllocation:
    """Regression: ``load_index_u32`` staged its index array through a
    scratch buffer that was re-allocated whenever ``vl`` grew past the
    previous request — the bump allocator cannot free, so every regrow
    leaked the old region.  The scratch is now allocated once, at the
    architectural maximum (vlmax at LMUL=8 over 32-bit elements)."""

    @staticmethod
    def _scratch_extents(machine):
        return [e for e in machine.memory.allocations
                if e.label == "index_scratch"]

    def test_scratch_allocated_once_even_as_vl_grows(self, m):
        m.setvl(4)
        m.load_index_u32(1, (np.arange(4) * 4).astype(np.uint32))
        assert len(self._scratch_extents(m)) == 1
        # Growing vl — all the way to vlmax at LMUL=8 — must reuse the
        # same region, not regrow it.
        vl = m.setvl(10**9, lmul=8)
        assert vl == m.vlen_bits // 4
        m.load_index_u32(8, (np.arange(vl) * 4).astype(np.uint32))
        exts = self._scratch_extents(m)
        assert len(exts) == 1
        assert exts[0].size == m.vlen_bits  # vlmax entries x 4 bytes

    def test_scratch_address_stable_across_uses(self, m):
        m.setvl(2)
        m.load_index_u32(1, np.array([0, 4], dtype=np.uint32))
        first = self._scratch_extents(m)[0]
        m.setvl(16)
        m.load_index_u32(2, (np.arange(16) * 4).astype(np.uint32))
        m.setvl(8)
        m.load_index_u32(3, (np.arange(8) * 4).astype(np.uint32))
        assert self._scratch_extents(m) == [first]

    def test_no_scratch_until_first_indexed_load(self, m):
        m.setvl(16)
        a = m.memory.alloc_f32(16)
        m.vle32(1, a)
        assert self._scratch_extents(m) == []

    def test_memory_footprint_constant_across_many_calls(self, m):
        """The original leak grew ``bytes_allocated`` on every regrow;
        repeated indexed loads must now keep the footprint flat."""
        m.setvl(16)
        offs = (np.arange(16) * 4).astype(np.uint32)
        m.load_index_u32(1, offs)
        footprint = m.memory.bytes_allocated
        for _ in range(10):
            m.load_index_u32(1, offs)
        assert m.memory.bytes_allocated == footprint


# ----------------------------------------------------------------------
# Execution by signature: what the first occurrence binds, and what
# every occurrence still checks.
# ----------------------------------------------------------------------
def _snapshot(tracer, path):
    """Everything a retired instruction would change in ``tracer``."""
    save_trace(tracer, path)
    return ([(s.sid, s.count, None if s.payload is None else len(s.payload))
             for s in tracer.sigs],
            list(tracer.sig_ids), len(tracer), path.read_bytes())


def _lanes(m):
    """The register file as 32 rows of fp32 lanes."""
    return m.regs.f32(0, 32).reshape(32, -1).copy()


_ACCESSES = {
    "vle32": lambda m, base: m.vle32(1, base),
    "vse32": lambda m, base: m.vse32(1, base),
    "vlse32": lambda m, base: m.vlse32(1, base, 8),
    "vsse32": lambda m, base: m.vsse32(1, base, 8),
    "vluxei32": lambda m, base: m.vluxei32(1, base, 5),
    "vsuxei32": lambda m, base: m.vsuxei32(1, base, 5),
}


class TestExecutionBySignature:
    @pytest.fixture
    def mm(self):
        m = RvvMachine(512, memory=Memory(4096), tracer=Tracer(capture=True))
        m.setvl(16)
        m.vid_v(5)
        m.vmul_vx(5, 5, 4)
        return m

    @pytest.mark.parametrize("op", sorted(_ACCESSES))
    def test_every_occurrence_checks_its_base(self, mm, op):
        access = _ACCESSES[op]
        a = mm.memory.alloc_f32(64)
        for k in range(3):
            access(mm, a + 4 * k)
        end = mm.memory.base + mm.memory.size
        sig = mm.tracer.sigs[mm.tracer.sig_ids[-1]]
        for _ in range(2):
            with pytest.raises(MemoryError_):
                access(mm, end - 8)
            with pytest.raises(AlignmentError):
                access(mm, a + 2)
        access(mm, a)
        assert sig.count == 4

    @pytest.mark.parametrize("op", ["vluxei32", "vsuxei32"])
    def test_every_occurrence_checks_its_index_content(self, mm, op):
        access = _ACCESSES[op]
        a = mm.memory.alloc_f32(64)
        access(mm, a)
        mm.vadd_vx(5, 5, 2)  # same index register, misaligned offsets
        with pytest.raises(AlignmentError):
            access(mm, a)
        mm.vadd_vx(5, 5, 1 << 16)  # same index register, out of memory
        with pytest.raises(MemoryError_):
            access(mm, a)

    def test_strict_overlap_raises_on_every_occurrence(self):
        m = RvvMachine(512, strict=True, tracer=Tracer(capture=True))
        m.setvl(16)
        m.vslideup_vx(2, 1, 4)
        for _ in range(3):
            with pytest.raises(VectorStateError):
                m.vslideup_vx(1, 1, 4)
            with pytest.raises(VectorStateError):
                m.vrgather_vv(1, 1, 2)
        assert m.tracer.counts() == {"vsetvl": 1, "vslide": 1}

    def test_a_raising_instruction_records_nothing(self, mm, tmp_path):
        a = mm.memory.alloc_f32(64)
        mm.vle32(1, a)
        mm.vfmacc_vf(2, 0.5, 1)
        end = mm.memory.base + mm.memory.size
        before = _snapshot(mm.tracer, tmp_path / "t")
        raising = [
            lambda: mm.vle32(1, end),           # a later occurrence
            lambda: mm.vle32(9, end),           # a first occurrence
            lambda: mm.vle32(1, a + 1),
            lambda: mm.vslideup_vx(3, 2, -1),   # the binder raises
            lambda: mm.vfmacc_vf(32, 0.5, 1),
        ]
        for op in raising * 2:
            with pytest.raises((MemoryError_, AlignmentError,
                                IllegalInstructionError, VectorStateError)):
                op()
            assert _snapshot(mm.tracer, tmp_path / "t") == before

    def test_same_registers_under_a_new_vl_and_lmul(self):
        m = RvvMachine(512, tracer=Tracer(capture=True))
        a = m.memory.alloc_f32(64)
        b = m.memory.alloc_f32(64)
        rng = np.random.default_rng(3)
        fill(m, a, rng.standard_normal(64))
        fill(m, b, rng.standard_normal(64))
        want = _lanes(m)
        for avl, lmul in ((16, 1), (5, 1), (40, 2), (16, 1), (5, 1)):
            vl = m.setvl(avl, lmul=lmul)
            m.vle32(2, a)
            m.vle32(4, b)
            m.vfmacc_vv(6, 2, 4)
            m.vslideup_vx(8, 6, 3)
            flat = want.reshape(-1)
            for reg, addr in ((2, a), (4, b)):
                flat[16 * reg: 16 * reg + vl] = m.memory.read_f32(addr, vl)
            d = slice(96, 96 + vl)
            flat[d] += flat[32: 32 + vl] * flat[64: 64 + vl]
            flat[128 + 3: 128 + vl] = flat[96: 96 + vl - 3]
            np.testing.assert_array_equal(_lanes(m), want)

    def _program(self, m, a):
        m.vle32(1, a)
        m.vfmacc_vf(2, 0.5, 1)
        m.vslideup_vx(3, 2, 2)
        m.vse32(3, a + 64)

    def _summary(self, tracer):
        return [(e.opclass, e.elems, e.ops,
                 None if e.mem is None else e.mem.base) for e in tracer.events]

    def test_tracer_reset_mid_run(self):
        m = RvvMachine(512, tracer=Tracer(capture=True))
        ref = RvvMachine(512, tracer=Tracer(capture=True))
        a = m.memory.alloc_f32(64)
        assert ref.memory.alloc_f32(64) == a
        for mach in (m, ref):
            fill(mach, a, np.arange(64))
            mach.setvl(16)
            self._program(mach, a)
        m.tracer.reset()
        ref_before = len(ref.tracer)
        self._program(m, a)
        self._program(ref, a)
        assert len(m.tracer) == len(ref.tracer) - ref_before == 4
        assert self._summary(m.tracer) == self._summary(ref.tracer)[ref_before:]
        np.testing.assert_array_equal(_lanes(m), _lanes(ref))
        m.setvl(16)
        self._program(m, a)
        held = [sig for binds in m._binds_at.values() for _, sig in binds.values()]
        assert held and all(s in m.tracer.sigs for s in held)

    def test_assigning_a_fresh_tracer(self):
        m = RvvMachine(512, tracer=Tracer(capture=True))
        ref = RvvMachine(512, tracer=Tracer(capture=True))
        a = m.memory.alloc_f32(64)
        assert ref.memory.alloc_f32(64) == a
        for mach in (m, ref):
            fill(mach, a, np.arange(64))
        m.setvl(16)
        self._program(m, a)
        first = m.tracer
        n_first = len(first)
        m.tracer = Tracer(capture=True)
        m.setvl(16)
        self._program(m, a)
        ref.setvl(16)
        for _ in range(3):
            self._program(ref, a)
        assert len(first) == n_first
        assert self._summary(m.tracer) == self._summary(ref.tracer)[:5]
        m.tracer = first
        self._program(m, a)
        assert len(first) == n_first + 4
        assert [s.count for s in first.sigs] == [1, 2, 2, 2, 2]
        np.testing.assert_array_equal(_lanes(m), _lanes(ref))

    def test_memory_and_strict_are_fixed_at_construction(self):
        """Bindings hold the memory's methods and the strict decision,
        so replacing either must fail loudly, not go unseen."""
        m = RvvMachine(512, strict=True)
        mem = m.memory
        with pytest.raises(AttributeError):
            m.memory = Memory(4096)
        with pytest.raises(AttributeError):
            m.strict = False
        assert m.memory is mem and m.strict

    def test_counting_tracer_gives_the_same_counts(self):
        from repro.kernels import winograd_conv2d_sim

        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 6, 7)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        runs = []
        for capture in (True, False):
            m = RvvMachine(512, memory=Memory(1 << 24),
                           tracer=Tracer(capture=capture))
            out = winograd_conv2d_sim(m, x, w, pad=1, variant="indexed")
            runs.append((out, dict(m.tracer.by_class), len(m.tracer)))
        (out1, stats1, n1), (out2, stats2, n2) = runs
        np.testing.assert_array_equal(out1, out2)
        assert stats1 == stats2 and n1 == n2
