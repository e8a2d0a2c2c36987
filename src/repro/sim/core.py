"""In-order core timing model (the gem5 RiscvMinorCPU role).

The paper's gem5 fork "models a constant latency for all the vector
instructions" (Section 4) on an in-order RiscvMinorCPU at 2 GHz.  We
reproduce that as the default ``constant`` latency mode: every vector
instruction occupies a fixed number of issue cycles regardless of the
vector length, so halving the dynamic instruction count (by doubling
VLEN) halves compute time — exactly the scaling regime the paper's
co-design study explores — until memory stalls dominate.

Two deliberate exceptions and one alternative mode:

- **Indexed (gather/scatter) accesses** cost a setup plus a per-element
  charge: real RVV implementations (and gem5's) issue one memory access
  per element for indexed operations, which is precisely why the paper
  finds them ~2.3x slower than the slideup workaround.
- **vsetvl/scalar** bookkeeping costs one cycle.
- ``throughput`` mode charges ``ceil(elems / lanes)`` cycles per vector
  instruction for a fixed physical datapath width — the ablation for
  how much of the paper's VL-scaling conclusion rests on the fork's
  constant-latency assumption (the paper itself flags this caveat).

With the defaults (one cycle per vector instruction, 512-bit datapath),
peak fp32 throughput at 512-bit VLEN is 16 lanes x 2 flops x 2 GHz =
64 GFLOP/s — the paper's roofline compute ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, overload

from repro.errors import ConfigError
from repro.isa import OpClass

if TYPE_CHECKING:
    import numpy as np
    import numpy.typing as npt

#: Latency modes.
CONSTANT = "constant"
THROUGHPUT = "throughput"

_INDEXED = {OpClass.VLOAD_INDEXED, OpClass.VSTORE_INDEXED}
_STRIDED = {OpClass.VLOAD_STRIDED, OpClass.VSTORE_STRIDED}
_UNIT_MEM = {OpClass.VLOAD_UNIT, OpClass.VSTORE_UNIT}
_SINGLE_CYCLE = {OpClass.SCALAR, OpClass.VSETVL}

#: fp32 elements one L1 access (64-byte line) serves for unit accesses.
_ELEMS_PER_LINE = 16


@dataclass(frozen=True)
class LatencyModel:
    """Issue-occupancy model for dynamic instructions.

    Attributes:
        mode: ``constant`` (the paper's gem5 fork) or ``throughput``.
        vec_occupancy: cycles per ordinary vector instruction in
            constant mode (also the pipeline chime floor in throughput
            mode).
        gather_setup: fixed cycles per indexed/strided memory instruction.
        gather_per_elem: additional cycles per active element of an
            indexed memory instruction (the index-register dependency
            serializes the element accesses).
        strided_per_elem: additional cycles per element of a strided
            access — cheaper than a gather because the address sequence
            is deterministic and pipelines without an index read (as in
            Ara-class implementations).
        datapath_bits: physical vector datapath width for throughput
            mode (elements processed per cycle = datapath_bits / 32).
    """

    mode: str = CONSTANT
    vec_occupancy: int = 1
    gather_setup: int = 8
    gather_per_elem: float = 0.5
    strided_per_elem: float = 0.5
    datapath_bits: int = 512

    def __post_init__(self) -> None:
        if self.mode not in (CONSTANT, THROUGHPUT):
            raise ConfigError(f"unknown latency mode {self.mode!r}")
        if self.vec_occupancy < 1 or self.gather_setup < 0:
            raise ConfigError("occupancies must be positive")
        if self.datapath_bits % 32 or self.datapath_bits <= 0:
            raise ConfigError("datapath_bits must be a positive multiple of 32")

    @property
    def lanes(self) -> int:
        """fp32 elements the datapath processes per cycle."""
        return self.datapath_bits // 32

    def issue_cycles(self, opclass: OpClass, elems: int) -> float:
        """Issue occupancy of one dynamic instruction.

        The ``constant`` mode applies the gem5 fork's fixed latency to
        *arithmetic* vector instructions; memory instructions always pay
        the memory system's occupancy on top of that behaviour:

        - indexed and strided accesses issue one L1 access per element
          (the paper's finding that "strided vector instructions perform
          equally to scatter/gather instructions" — both are per-element
          at the load/store unit);
        - unit-stride accesses issue one L1 access per 64-byte line.
        """
        if opclass in _SINGLE_CYCLE:
            return 1.0
        if opclass in _INDEXED:
            return self.gather_setup + self.gather_per_elem * elems
        if opclass in _STRIDED:
            return self.gather_setup + self.strided_per_elem * elems
        if opclass in _UNIT_MEM:
            lines = -(-max(elems, 1) // _ELEMS_PER_LINE)
            return float(max(self.vec_occupancy, lines))
        if self.mode == CONSTANT:
            return float(self.vec_occupancy)
        chimes = -(-max(elems, 1) // self.lanes)  # ceil
        return float(max(self.vec_occupancy, chimes))

    def batch_issue_cycles(self, opclass: OpClass, instrs: int, total_elems: int) -> float:
        """Issue cycles for ``instrs`` instructions totalling ``total_elems``.

        Exact for constant mode; for throughput mode it charges the mean
        element count per instruction, which is exact when all instances
        share one vector length (the common case — tails are rare).
        """
        if instrs == 0:
            return 0.0
        if opclass in _SINGLE_CYCLE:
            return float(instrs)
        if opclass in _INDEXED:
            return self.gather_setup * instrs + self.gather_per_elem * total_elems
        if opclass in _STRIDED:
            return self.gather_setup * instrs + self.strided_per_elem * total_elems
        if opclass in _UNIT_MEM:
            mean_elems = max(total_elems / instrs, 1.0)
            lines = -(-int(round(mean_elems)) // _ELEMS_PER_LINE)
            return float(max(self.vec_occupancy, lines)) * instrs
        if self.mode == CONSTANT:
            return float(self.vec_occupancy * instrs)
        mean_elems = total_elems / instrs
        chimes = -(-max(int(round(mean_elems)), 1) // self.lanes)
        return float(max(self.vec_occupancy, chimes)) * instrs


@dataclass(frozen=True)
class MemoryTimings:
    """Stall model of the memory hierarchy below the L1.

    An in-order core stalls on misses with limited memory-level
    parallelism; ``mlp_*`` are the effective overlap factors.  DRAM line
    transfers are additionally bounded by the sustained bandwidth the
    paper's roofline uses (13 GB/s).
    """

    l2_hit_latency: int = 12
    mlp_l2: float = 4.0
    dram_latency: int = 200
    mlp_dram: float = 8.0
    dram_gbs: float = 13.0
    freq_ghz: float = 2.0
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if min(self.mlp_l2, self.mlp_dram) <= 0 or self.dram_gbs <= 0:
            raise ConfigError("MLP factors and DRAM bandwidth must be positive")

    @property
    def dram_bytes_per_cycle(self) -> float:
        return self.dram_gbs / self.freq_ghz

    @property
    def dram_cycles_per_line(self) -> float:
        """Effective cycles per DRAM line: latency/MLP vs bandwidth bound."""
        latency_bound = self.dram_latency / self.mlp_dram
        bandwidth_bound = self.line_bytes / self.dram_bytes_per_cycle
        return max(latency_bound, bandwidth_bound)

    def stall_cycles(
        self, l1_misses: int, l2_misses: int, l2_writebacks: int
    ) -> tuple[float, float]:
        """(L2 stall cycles, DRAM stall cycles) for the given miss counts.

        Writebacks consume DRAM bandwidth but not demand latency.
        """
        return (self.l2_stall_cycles(l1_misses),
                self.dram_stall_cycles(l2_misses, l2_writebacks))

    def l2_stall_cycles(self, l1_misses: int) -> float:
        """Stall cycles of the L1 misses served by the L2."""
        return l1_misses * self.l2_hit_latency / self.mlp_l2

    @overload
    def dram_stall_cycles(self, l2_misses: int, l2_writebacks: int) -> float: ...

    @overload
    def dram_stall_cycles(
        self, l2_misses: npt.NDArray[np.int64], l2_writebacks: npt.NDArray[np.int64]
    ) -> npt.NDArray[np.float64]: ...

    def dram_stall_cycles(self, l2_misses: Any, l2_writebacks: Any) -> Any:
        """Stall cycles of the L2 misses and writebacks served by DRAM.

        Elementwise over integer arrays (one entry per L2 size of a
        replayed axis), with the same float operations as on scalars.
        """
        return (
            l2_misses * self.dram_cycles_per_line
            + l2_writebacks * self.line_bytes / self.dram_bytes_per_cycle
        )
