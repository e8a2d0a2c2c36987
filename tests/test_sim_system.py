"""Tests for the latency model, system config, and trace simulation."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.isa import OpClass
from repro.rvv import RvvMachine, Tracer
from repro.rvv.tracer import MemAccess
from repro.sim import (
    CONSTANT,
    THROUGHPUT,
    LatencyModel,
    MemoryTimings,
    Simulator,
    SystemConfig,
)


class TestLatencyModel:
    def test_constant_mode_ignores_vl(self):
        lm = LatencyModel(mode=CONSTANT, vec_occupancy=1)
        assert lm.issue_cycles(OpClass.VFMA, 16) == 1
        assert lm.issue_cycles(OpClass.VFMA, 128) == 1

    def test_throughput_mode_scales_with_vl(self):
        lm = LatencyModel(mode=THROUGHPUT, datapath_bits=512)
        assert lm.issue_cycles(OpClass.VFMA, 16) == 1
        assert lm.issue_cycles(OpClass.VFMA, 128) == 8

    def test_gather_is_per_element_in_both_modes(self):
        for mode in (CONSTANT, THROUGHPUT):
            lm = LatencyModel(mode=mode, gather_setup=4, gather_per_elem=1.0)
            assert lm.issue_cycles(OpClass.VLOAD_INDEXED, 16) == 20
            assert lm.issue_cycles(OpClass.VLOAD_INDEXED, 128) == 132

    def test_scalar_is_one_cycle(self):
        lm = LatencyModel()
        assert lm.issue_cycles(OpClass.SCALAR, 1) == 1
        assert lm.issue_cycles(OpClass.VSETVL, 16) == 1

    def test_batch_matches_single(self):
        lm = LatencyModel(mode=THROUGHPUT, datapath_bits=512)
        single = sum(lm.issue_cycles(OpClass.VFMA, 64) for _ in range(10))
        assert lm.batch_issue_cycles(OpClass.VFMA, 10, 640) == single

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            LatencyModel(mode="magic")


class TestMemoryTimings:
    def test_dram_cycles_per_line_bandwidth_bound(self):
        mt = MemoryTimings(dram_latency=200, mlp_dram=100, dram_gbs=13.0, freq_ghz=2.0)
        # latency/mlp = 2 < 64 / 6.5 = 9.85 -> bandwidth bound.
        assert mt.dram_cycles_per_line == pytest.approx(64 / 6.5)

    def test_dram_cycles_per_line_latency_bound(self):
        mt = MemoryTimings(dram_latency=400, mlp_dram=2, dram_gbs=100.0)
        assert mt.dram_cycles_per_line == pytest.approx(200.0)

    def test_writebacks_cost_bandwidth_only(self):
        mt = MemoryTimings(dram_gbs=13.0, freq_ghz=2.0)
        _, d0 = mt.stall_cycles(0, 10, 0)
        _, d1 = mt.stall_cycles(0, 10, 5)
        assert d1 - d0 == pytest.approx(5 * 64 / 6.5)


class TestSystemConfig:
    def test_peak_gflops_matches_paper_at_512(self):
        cfg = SystemConfig()  # defaults: 512-bit, 2 GHz, constant, occ 1
        assert cfg.peak_gflops == pytest.approx(64.0)

    def test_peak_scales_with_vlen_in_constant_mode(self):
        cfg = SystemConfig(vlen_bits=4096)
        assert cfg.peak_gflops == pytest.approx(512.0)

    def test_peak_capped_by_datapath_in_throughput_mode(self):
        cfg = SystemConfig(vlen_bits=4096, latency_mode=THROUGHPUT)
        assert cfg.peak_gflops == pytest.approx(64.0)

    def test_with_copies(self):
        cfg = SystemConfig()
        cfg2 = cfg.with_(l2_mb=64)
        assert cfg2.l2_mb == 64 and cfg.l2_mb == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(l2_mb=0)


def stream_trace(n_lines: int, reps: int, lines_per_load: int = 1) -> Tracer:
    """A captured trace streaming over ``n_lines`` cache lines, ``reps``
    times: unit fp32 loads of ``lines_per_load`` lines each, every load
    followed by one VFMA over the loaded elements."""
    elems = 16 * lines_per_load
    tracer = Tracer(capture=True)
    for _ in range(reps):
        for base in range(0, n_lines * 64, elems * 4):
            tracer.record(OpClass.VLOAD_UNIT, elems, 32,
                          MemAccess("unit", base, elems, 4, stride=4))
            tracer.record(OpClass.VFMA, elems, 32)
    return tracer


#: 4 MB streamed four times, 64 lines per load: more than a 1 MB L2.
LARGE_STREAM = stream_trace(65536, 4, lines_per_load=64)


class TestSimulator:
    def test_instruction_accounting_exact(self):
        stats = Simulator(SystemConfig()).run_trace(stream_trace(100, 3))
        assert stats.instrs["vload_unit"] == 300
        assert stats.instrs["vfma"] == 300
        assert stats.flops == 300 * 32

    def test_fitting_working_set_hits_after_first_pass(self):
        trace = stream_trace(64, 10)  # 4 kB, fits L1
        stats = Simulator(SystemConfig()).run_trace(trace)
        assert stats.hierarchy.l1.misses == 64  # cold only
        assert stats.l2_miss_rate == 1.0  # all 64 cold misses reach DRAM

    def test_streaming_working_set_misses(self):
        # 4 MB working set > 1 MB L2: repeated passes keep missing.
        stats = Simulator(SystemConfig()).run_trace(LARGE_STREAM)
        assert stats.hierarchy.l2.miss_rate > 0.9

    def test_larger_l2_eliminates_misses(self):
        small = Simulator(SystemConfig(l2_mb=1)).run_trace(LARGE_STREAM)
        big = Simulator(SystemConfig(l2_mb=16)).run_trace(LARGE_STREAM)
        assert big.hierarchy.l2.misses < small.hierarchy.l2.misses / 3
        assert big.cycles < small.cycles

    def test_vlen_reduces_instructions_constant_mode(self):
        """Doubling VL halves instructions and compute cycles (the
        scaling regime of the paper's gem5 fork)."""

        def program(vl_elems):
            tracer = Tracer(capture=True)
            for _ in range(4096 // vl_elems):
                tracer.record(OpClass.VFMA, vl_elems, 32)
            return tracer

        sim = Simulator(SystemConfig())
        s16 = sim.run_trace(program(16))
        s128 = sim.run_trace(program(128))
        assert s16.issue_cycles == 8 * s128.issue_cycles

    def test_stats_merge(self):
        trace = stream_trace(64, 2)
        sim = Simulator(SystemConfig())
        a = sim.run_trace(trace)
        b = sim.run_trace(trace)
        total_flops = a.flops + b.flops
        a.merge(b)
        assert a.flops == total_flops
        assert a.total_instrs == 2 * b.total_instrs

    def test_stats_merge_rejects_frequency_mismatch(self):
        """Merging runs from different clocks would corrupt seconds."""
        trace = stream_trace(64, 2)
        a = Simulator(SystemConfig(freq_ghz=2.0)).run_trace(trace)
        b = Simulator(SystemConfig(freq_ghz=1.5)).run_trace(trace)
        with pytest.raises(ConfigError):
            a.merge(b)

    def test_stats_roundtrip_from_dict(self):
        """to_dict/from_dict is lossless for every counter."""
        a = Simulator(SystemConfig()).run_trace(stream_trace(64, 2),
                                                label="rt")
        b = type(a).from_dict(a.to_dict())
        assert b == a
        assert b.cycles == a.cycles
        assert b.hierarchy.l2.writebacks == a.hierarchy.l2.writebacks

    def test_report_renders(self):
        stats = Simulator(SystemConfig()).run_trace(stream_trace(16, 1))
        text = stats.report()
        assert "L2 miss rate" in text and "GFLOP/s" in text


class TestTraceSimulation:
    def test_functional_trace_roundtrip(self):
        """A functional-machine run feeds the timing model directly."""
        m = RvvMachine(vlen_bits=512, tracer=Tracer(capture=True))
        n = 256
        a = m.memory.alloc_f32(n)
        b = m.memory.alloc_f32(n)
        done = 0
        while done < n:
            vl = m.setvl(n - done)
            m.vle32(1, a + 4 * done)
            m.vfmul_vf(1, 1, 2.0)
            m.vse32(1, b + 4 * done)
            done += vl
        stats = Simulator(SystemConfig()).run_trace(m.tracer, label="scale")
        assert stats.instrs["vload_unit"] == 16
        assert stats.instrs["vstore_unit"] == 16
        assert stats.instrs["vfarith"] == 16
        assert stats.hierarchy.l1.accesses == 32  # one line per access
        assert stats.cycles > 0

    def test_gather_trace_is_slower_than_unit(self):
        """Timing model: indexed loads cost more than unit loads for the
        same data — the root of the paper's 2.3x finding."""

        def run(indexed: bool):
            m = RvvMachine(vlen_bits=512, tracer=Tracer(capture=True))
            a = m.memory.alloc_f32(1024)
            m.setvl(16)
            offs = (np.arange(16) * 4).astype(np.uint32)
            if indexed:
                m.load_index_u32(2, offs)  # hoisted, as Algorithm 1 does
            for i in range(64):
                # Same hot line every iteration: isolates issue cost.
                if indexed:
                    m.vluxei32(1, a, 2)
                else:
                    m.vle32(1, a)
            return Simulator(SystemConfig()).run_trace(m.tracer)

        assert run(True).cycles > 2 * run(False).cycles
