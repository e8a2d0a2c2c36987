"""The simulated system: configuration and the program runner.

:class:`SystemConfig` bundles everything the paper's co-design study
tunes (vector length, L2 size) plus the fixed parameters of its gem5
setup (2 GHz in-order core, 64 kB L1, 64 B lines, constant-latency
vector instructions, 13 GB/s DRAM).  :class:`Simulator` runs a program
— a list of :class:`~repro.sim.events.LoopNest` — through the latency
model and the cache hierarchy and returns :class:`~repro.sim.stats.SimStats`.

Sampled cache simulation
------------------------
A full network layer's address stream is billions of lines; like the
paper (which truncates YOLOv3 to 20 layers "to avoid extreme simulation
times"), we bound simulation cost — by sampling, not truncation.  For
each loop nest the simulator materializes one outer iteration's line
stream to gauge its size; if the whole nest fits under
``max_sim_lines`` it is simulated exactly, otherwise a warmup window is
run (counters then discarded), a measurement window is simulated, and
its cache statistics are scaled to the nest's full trip count.  A nest
whose outer trip count cannot cover warmup plus one sample window
(``outer == 1`` with a single oversized iteration) has nothing to
extrapolate and is simulated exactly instead.  The nests generated by
:mod:`repro.model` put the homogeneous tile/row loop outermost, which
makes the windows representative; the sampler itself is validated
against exact simulation in the test suite.

Stream record/replay
--------------------
Materializing a nest's line stream is pure in (nest, line size) —
cache geometry never changes the stream — so the simulator records
each materialized segment in a bounded :class:`~repro.sim.replay.StreamCache`
(shared process-wide by default) and replays it on every later
simulation of the same nest, e.g. across the L2 axis of a co-design
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ConfigError, SimulationError
from repro.isa import OpClass
from repro.rvv.tracer import Tracer
from repro.sim.cache import CacheHierarchy, HierarchyStats
from repro.sim.core import CONSTANT, LatencyModel, MemoryTimings
from repro.sim.events import LoopNest
from repro.sim.replay import StreamCache, default_stream_cache
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
    # Sampling policy.
    max_sim_lines: int = 2_000_000
    warmup_outer: int = 2
    sample_outer: int = 8

    def __post_init__(self) -> None:
        if self.vlen_bits % 32 or self.vlen_bits <= 0:
            raise ConfigError(f"vlen_bits must be a positive multiple of 32")
        if self.l2_mb <= 0 or self.l1_kb <= 0:
            raise ConfigError("cache sizes must be positive")
        if self.sample_outer < 1 or self.warmup_outer < 0:
            raise ConfigError("sampling windows must be positive")

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
    """Runs loop-nest programs (or captured traces) on a configuration.

    Args:
        config: the simulated system.
        stream_cache: the record/replay cache for materialized nest
            streams; defaults to the process-wide cache
            (:func:`repro.sim.replay.default_stream_cache`).
    """

    def __init__(self, config: SystemConfig,
                 stream_cache: StreamCache | None = None) -> None:
        self.config = config
        self._lat = config.latency_model()
        self._mem = config.memory_timings()
        self._streams = (
            stream_cache if stream_cache is not None else default_stream_cache()
        )

    # ------------------------------------------------------------------
    def run(self, nests: list[LoopNest], label: str = "") -> SimStats:
        """Simulate a program: exact instruction/flop accounting plus
        (possibly sampled) cache simulation and the stall model."""
        if not nests:
            raise SimulationError("empty program")
        hier = self.config.hierarchy()
        for nest in nests:
            self._simulate_nest_cache(nest, hier)
        hstats = hier.snapshot()
        return self._assemble(nests, hstats, label)

    def _simulate_nest_cache(self, nest: LoopNest, hier: CacheHierarchy) -> None:
        outer = nest.dims[0]
        if outer == 0:
            return
        streams = self._streams.streams(nest, self.config.line_bytes)
        probe_lines, probe_store = streams.segment(0)
        per_outer = max(probe_lines.size, 1)
        total_lines = per_outer * outer
        if total_lines <= self.config.max_sim_lines:
            # Exact simulation of the whole nest.
            hier.access(probe_lines, probe_store)
            for o in range(1, outer):
                lines, stores = streams.segment(o)
                hier.access(lines, stores)
            return
        # Sampled: a warmup window (kept - it holds the cold misses)
        # plus a measurement window extrapolated over the remainder.
        warm = max(1, min(self.config.warmup_outer, outer - 1))
        sample = min(self.config.sample_outer, outer - warm)
        if sample < 1:
            # Degenerate window: the whole trip count is warmup (only
            # reachable at outer == 1, whose single iteration exceeds
            # ``max_sim_lines`` on its own).  There is nothing to
            # extrapolate — simulate the nest exactly rather than
            # dividing by an empty sample.
            hier.access(probe_lines, probe_store)
            for o in range(1, outer):
                lines, stores = streams.segment(o)
                hier.access(lines, stores)
            return
        hier.access(probe_lines, probe_store)  # outer 0 opens the warmup
        for o in range(1, warm):
            lines, stores = streams.segment(o)
            hier.access(lines, stores)
        mid = hier.snapshot()
        for o in range(warm, warm + sample):
            lines, stores = streams.segment(o)
            hier.access(lines, stores)
        after = hier.snapshot()
        window = _h_sub(after, mid)
        # Totals = (everything through warmup) + the sample window scaled
        # to cover every outer iteration after the warmup.
        scaled = window.scaled((outer - warm) / sample)
        _h_assign(hier, _h_add(mid, scaled))

    # ------------------------------------------------------------------
    def _assemble(
        self, nests: list[LoopNest], hstats: HierarchyStats, label: str
    ) -> SimStats:
        instr_counts: dict[OpClass, int] = {}
        elem_counts: dict[OpClass, int] = {}
        flops = 0
        for nest in nests:
            for c, n in nest.instr_counts().items():
                instr_counts[c] = instr_counts.get(c, 0) + n
            for c, n in nest.elem_counts().items():
                elem_counts[c] = elem_counts.get(c, 0) + n
            flops += nest.total_flops()
        issue = 0.0
        for c, n in instr_counts.items():
            issue += self._lat.batch_issue_cycles(c, n, elem_counts.get(c, 0))
        l2_stall, dram_stall = self._mem.stall_cycles(
            hstats.l1.misses, hstats.l2.misses, hstats.l2.writebacks
        )
        return SimStats(
            freq_ghz=self.config.freq_ghz,
            issue_cycles=issue,
            l2_stall_cycles=l2_stall,
            dram_stall_cycles=dram_stall,
            instrs={c.value: n for c, n in instr_counts.items()},
            elems={c.value: n for c, n in elem_counts.items()},
            flops=flops,
            hierarchy=hstats,
            label=label or self.config.describe(),
        )

    # ------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# HierarchyStats arithmetic helpers for the sampling bookkeeping.
# ----------------------------------------------------------------------
def _h_sub(a: HierarchyStats, b: HierarchyStats) -> HierarchyStats:
    out = HierarchyStats(line_bytes=a.line_bytes)
    for lvl in ("l1", "l2"):
        sa, sb, so = getattr(a, lvl), getattr(b, lvl), getattr(out, lvl)
        so.accesses = sa.accesses - sb.accesses
        so.misses = sa.misses - sb.misses
        so.evictions = sa.evictions - sb.evictions
        so.writebacks = sa.writebacks - sb.writebacks
    return out


def _h_add(a: HierarchyStats, b: HierarchyStats) -> HierarchyStats:
    out = HierarchyStats(line_bytes=a.line_bytes)
    for lvl in ("l1", "l2"):
        sa, sb, so = getattr(a, lvl), getattr(b, lvl), getattr(out, lvl)
        so.accesses = sa.accesses + sb.accesses
        so.misses = sa.misses + sb.misses
        so.evictions = sa.evictions + sb.evictions
        so.writebacks = sa.writebacks + sb.writebacks
    return out


def _h_assign(hier: CacheHierarchy, totals: HierarchyStats) -> None:
    """Overwrite the hierarchy's counters with corrected totals."""
    for lvl in ("l1", "l2"):
        src = getattr(totals, lvl)
        dst = getattr(hier, lvl).stats
        dst.accesses = src.accesses
        dst.misses = src.misses
        dst.evictions = src.evictions
        dst.writebacks = src.writebacks
