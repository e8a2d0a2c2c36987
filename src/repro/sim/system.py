"""The simulated system: configuration and the trace runner.

:class:`SystemConfig` bundles everything the paper's co-design study
tunes (vector length, L2 size) plus the fixed parameters of its gem5
setup (2 GHz in-order core, 64 kB L1, 64 B lines, constant-latency
vector instructions, 13 GB/s DRAM).  :class:`Simulator` replays a
captured functional-machine trace exactly through the latency model and
the cache hierarchy and returns :class:`~repro.sim.stats.SimStats`.
Whole-network timing does not simulate address streams at all: it
replays a per-VLEN recording of the layer models
(:mod:`repro.nets.inference`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ConfigError
from repro.rvv.tracer import Tracer
from repro.sim.cache import CacheHierarchy
from repro.sim.core import CONSTANT, LatencyModel, MemoryTimings
from repro.sim.stats import SimStats


@dataclass(frozen=True)
class SystemConfig:
    """One point of the co-design space.

    The defaults are the paper's base configuration: 512-bit vector
    length, 2 GHz in-order core, 64 kB L1 + 1 MB L2, constant-latency
    vector instructions, 13 GB/s DRAM (64 GFLOP/s fp32 peak at 512-bit).
    """

    vlen_bits: int = 512
    freq_ghz: float = 2.0
    latency_mode: str = CONSTANT
    vec_occupancy: int = 1
    gather_setup: int = 8
    gather_per_elem: float = 0.5
    strided_per_elem: float = 0.5
    datapath_bits: int = 512
    l1_kb: int = 64
    l1_assoc: int = 8
    l2_mb: int = 1
    l2_assoc: int = 16
    line_bytes: int = 64
    l2_hit_latency: int = 12
    mlp_l2: float = 4.0
    dram_latency: int = 200
    mlp_dram: float = 8.0
    dram_gbs: float = 13.0

    def __post_init__(self) -> None:
        if self.vlen_bits % 32 or self.vlen_bits <= 0:
            raise ConfigError(
                f"vlen_bits must be a positive multiple of 32, "
                f"got {self.vlen_bits!r}")
        if self.l2_mb <= 0 or self.l1_kb <= 0:
            raise ConfigError("cache sizes must be positive")

    @property
    def lanes(self) -> int:
        """Architectural fp32 elements per vector register."""
        return self.vlen_bits // 32

    @property
    def peak_gflops(self) -> float:
        """Compute roofline ceiling of this configuration.

        In constant-latency mode one FMA instruction (2 flops/elem over
        a full vector) retires per ``vec_occupancy`` cycles.
        """
        if self.latency_mode == CONSTANT:
            elems_per_cycle = self.lanes / self.vec_occupancy
        else:
            elems_per_cycle = min(self.lanes, self.datapath_bits // 32)
        return 2.0 * elems_per_cycle * self.freq_ghz

    def latency_model(self) -> LatencyModel:
        return LatencyModel(
            mode=self.latency_mode,
            vec_occupancy=self.vec_occupancy,
            gather_setup=self.gather_setup,
            gather_per_elem=self.gather_per_elem,
            strided_per_elem=self.strided_per_elem,
            datapath_bits=self.datapath_bits,
        )

    def memory_timings(self) -> MemoryTimings:
        return MemoryTimings(
            l2_hit_latency=self.l2_hit_latency,
            mlp_l2=self.mlp_l2,
            dram_latency=self.dram_latency,
            mlp_dram=self.mlp_dram,
            dram_gbs=self.dram_gbs,
            freq_ghz=self.freq_ghz,
            line_bytes=self.line_bytes,
        )

    def hierarchy(self) -> CacheHierarchy:
        return CacheHierarchy(
            l1_kb=self.l1_kb,
            l2_mb=self.l2_mb,
            l1_assoc=self.l1_assoc,
            l2_assoc=self.l2_assoc,
            line_bytes=self.line_bytes,
        )

    def with_(self, **kw: Any) -> "SystemConfig":
        """A modified copy — the sweep helper (``cfg.with_(l2_mb=64)``)."""
        return replace(self, **kw)

    # The paper's base config for reference in reports.
    def describe(self) -> str:
        return (
            f"VLEN={self.vlen_bits}b L1={self.l1_kb}kB L2={self.l2_mb}MB "
            f"{self.freq_ghz}GHz {self.latency_mode}-latency DRAM={self.dram_gbs}GB/s"
        )


class Simulator:
    """Runs captured traces on a configuration.

    Args:
        config: the simulated system.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self._lat = config.latency_model()
        self._mem = config.memory_timings()

    def run_trace(self, tracer: Tracer, label: str = "") -> SimStats:
        """Simulate a captured functional-machine trace exactly.

        Used for kernel microbenchmarks (the paper's Section 3 timing
        comparisons) where the functional run is small enough to replay
        address-by-address.
        """
        hier = self.config.hierarchy()
        hier.access(*tracer.line_stream(self.config.line_bytes))
        hstats = hier.snapshot()
        issue = 0.0
        flops = 0
        instrs: dict[str, int] = {}
        elems: dict[str, int] = {}
        for c, s in tracer.by_class.items():
            issue += self._lat.batch_issue_cycles(c, s.instrs, s.elems)
            flops += s.flops
            instrs[c.value] = s.instrs
            elems[c.value] = s.elems
        l2_stall, dram_stall = self._mem.stall_cycles(
            hstats.l1.misses, hstats.l2.misses, hstats.l2.writebacks
        )
        return SimStats(
            freq_ghz=self.config.freq_ghz,
            issue_cycles=issue,
            l2_stall_cycles=l2_stall,
            dram_stall_cycles=dram_stall,
            instrs=instrs,
            elems=elems,
            flops=flops,
            hierarchy=hstats,
            label=label or self.config.describe(),
        )
