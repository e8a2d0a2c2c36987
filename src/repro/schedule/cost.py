"""Surrogate cost model for schedule search.

``repro tune`` ranks hundreds of candidate schedules before exactly
simulating only the top-k.  The surrogate here is cheap (no machine,
no trace) but principled on both axes of the timing model:

- **Issue cycles are exact.**  The per-opclass instruction/element
  counts are derived by walking the same strip/block decomposition the
  lowering emits (:func:`repro.schedule.lower._strips`), then priced
  with the configuration's own :class:`~repro.sim.core.LatencyModel`.
  For a given VLEN these counts equal the lifted trace's bit for bit.
- **Memory stalls are estimated** with a stack-distance-style capacity
  test, the same mechanism behind the co-design sweep's fast backend
  (:meth:`repro.nets.inference.NetworkRecording.evaluate`): the
  streamed B panel's reuse
  distance per revisit is compared against the L1/L2 capacities to
  decide whether revisits hit or miss.  This captures the paper's
  central effect — the ``Kd * vl * 4``-byte B-panel reuse distance
  growing with VLEN and LMUL — without simulating a single access.

The error model is documented in EXPERIMENTS.md ("Schedule search"):
ranking error can only come from the stall estimate, so exact re-rank
of the top-k is required whenever candidates are close or a working
set straddles a capacity boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import OpClass
from repro.schedule.algorithms import CopyAlgorithm, MatmulAlgorithm
from repro.schedule.ir import Schedule
from repro.schedule.lower import _strips
from repro.sim.system import SystemConfig

#: Cache line size assumed by the element->line conversion (fp32).
_ELEMS_PER_LINE = 16


def _lines(elems: int) -> int:
    """Upper-bound line count of one unit access of ``elems`` fp32.

    An unaligned run of ``e`` elements can straddle one extra line;
    the surrogate books the worst case (exactness lives in the issue
    counts, not here).
    """
    return -(-elems // _ELEMS_PER_LINE) + 1


@dataclass
class SurrogateCost:
    """Closed-form cost of one scheduled statement at one VLEN."""

    instrs: dict[str, int] = field(default_factory=dict)
    elems: dict[str, int] = field(default_factory=dict)
    issue_cycles: float = 0.0
    l2_stall_cycles: float = 0.0
    dram_stall_cycles: float = 0.0
    reuse_bytes: int = 0  # streamed-operand reuse distance per revisit

    @property
    def cycles(self) -> float:
        return self.issue_cycles + self.l2_stall_cycles + self.dram_stall_cycles

    def add(self, opclass: OpClass, instrs: int, elems: int) -> None:
        key = opclass.value
        self.instrs[key] = self.instrs.get(key, 0) + instrs
        self.elems[key] = self.elems.get(key, 0) + elems

    def merge(self, other: "SurrogateCost") -> "SurrogateCost":
        out = SurrogateCost(
            instrs=dict(self.instrs), elems=dict(self.elems),
            issue_cycles=self.issue_cycles + other.issue_cycles,
            l2_stall_cycles=self.l2_stall_cycles + other.l2_stall_cycles,
            dram_stall_cycles=self.dram_stall_cycles + other.dram_stall_cycles,
            reuse_bytes=max(self.reuse_bytes, other.reuse_bytes))
        for k, v in other.instrs.items():
            out.instrs[k] = out.instrs.get(k, 0) + v
        for k, v in other.elems.items():
            out.elems[k] = out.elems.get(k, 0) + v
        return out


def _price_issue(cost: SurrogateCost, config: SystemConfig) -> None:
    lat = config.latency_model()
    cost.issue_cycles = sum(
        lat.batch_issue_cycles(OpClass(key), n, cost.elems.get(key, 0))
        for key, n in cost.instrs.items())


def _stalls(cost: SurrogateCost, config: SystemConfig,
            l1_misses: float, l2_misses: float,
            writebacks: float = 0.0) -> None:
    l2, dram = config.memory_timings().stall_cycles(
        int(l1_misses), int(l2_misses), int(writebacks))
    cost.l2_stall_cycles = l2
    cost.dram_stall_cycles = dram


def matmul_surrogate(
    alg: MatmulAlgorithm, sched: Schedule, config: SystemConfig
) -> SurrogateCost:
    """Cost of one scheduled matmul at ``config.vlen_bits``."""
    sched.validate()
    lmul = sched.lmul
    vstep = (config.vlen_bits // 32) * lmul
    mr = sched.mr
    jt = sched.tiles.get("j")
    kt = sched.tiles.get("k")

    strips = list(_strips(alg.n, jt, vstep))
    i_blocks = [(i0, min(mr, alg.m - i0)) for i0 in range(0, alg.m, mr)]
    if isinstance(kt, int):
        k_blocks = [(k0, min(kt, alg.kd - k0)) for k0 in range(0, alg.kd, kt)]
    else:
        k_blocks = [(0, alg.kd)]
    order = [ax for ax in sched.order if ax != "k" or len(k_blocks) > 1]
    pre_j = 1
    for ax in order[: order.index("j")]:
        pre_j *= len(i_blocks) if ax == "i" else len(k_blocks)

    cost = SurrogateCost()
    b_load = (OpClass.VLOAD_UNIT if alg.b_elem_stride == 1
              else OpClass.VLOAD_STRIDED)
    if sched.setvl_hoist:
        cost.add(OpClass.VSETVL, len(strips) * pre_j,
                 sum(vl for _, _, vl in strips) * pre_j)
    total_rows = sum(rows for _, rows in i_blocks)  # == alg.m
    for _, _, vl in strips:
        for kb, (_, kn) in enumerate(k_blocks):
            if not sched.setvl_hoist:
                cost.add(OpClass.VSETVL, len(i_blocks), len(i_blocks) * vl)
            if kb == 0:
                cost.add(OpClass.VMOVE, total_rows, total_rows * vl)
            else:
                cost.add(OpClass.VLOAD_UNIT, total_rows, total_rows * vl)
            cost.add(b_load, len(i_blocks) * kn, len(i_blocks) * kn * vl)
            cost.add(OpClass.SCALAR, total_rows * kn, total_rows * kn)
            cost.add(OpClass.VFMA, total_rows * kn, total_rows * kn * vl)
            cost.add(OpClass.VSTORE_UNIT, total_rows, total_rows * vl)
    _price_issue(cost, config)

    # Stack-distance-style stall estimate: the streamed B panel block
    # is revisited once per i block; its reuse distance decides whether
    # the revisits hit in a given level.
    mean_vl = alg.n / max(len(strips), 1)
    mean_kn = alg.kd / len(k_blocks)
    i_outside_j = order.index("i") < order.index("j")
    span = alg.n if i_outside_j else mean_vl
    reuse = int(mean_kn * span * 4)
    cost.reuse_bytes = reuse
    l1_bytes = config.l1_kb * 1024
    l2_bytes = config.l2_mb * (1 << 20)

    def b_lines(per_visit_elems: float) -> float:
        if alg.b_elem_stride == 1:
            return per_visit_elems / _ELEMS_PER_LINE
        return per_visit_elems  # strided: one line touched per element

    cold_b = b_lines(alg.kd * alg.n)
    visits = len(i_blocks) * len(k_blocks) * len(strips)
    visit_elems = mean_kn * mean_vl
    all_b = b_lines(visits * visit_elems)
    # C traffic: one store pass per reduction block plus one reload
    # pass per block after the first.
    c_lines = (2 * len(k_blocks) - 1) * alg.m * alg.n / _ELEMS_PER_LINE
    l1_misses = (all_b if reuse > l1_bytes else cold_b) + c_lines
    l2_misses = (all_b if reuse > l2_bytes else cold_b) + (
        c_lines if alg.m * alg.n * 4 > l2_bytes else
        alg.m * alg.n / _ELEMS_PER_LINE)
    _stalls(cost, config, l1_misses, l2_misses)
    return cost


def copy_surrogate(
    alg: CopyAlgorithm, sched: Schedule, config: SystemConfig
) -> SurrogateCost:
    """Cost of one scheduled im2col copy at ``config.vlen_bits``."""
    sched.validate()
    lmul = sched.lmul
    vstep = (config.vlen_bits // 32) * lmul
    xt = sched.tiles.get("x")
    strips = list(_strips(alg.w_out, xt, vstep))
    n_loops = alg.rows * alg.h_out

    cost = SurrogateCost()
    load = OpClass.VLOAD_UNIT if alg.stride == 1 else OpClass.VLOAD_STRIDED
    elems = sum(vl for _, _, vl in strips) * n_loops
    cost.add(OpClass.VSETVL, len(strips) * n_loops, elems)
    cost.add(load, len(strips) * n_loops, elems)
    cost.add(OpClass.VSTORE_UNIT, len(strips) * n_loops, elems)
    _price_issue(cost, config)

    # The source plane is revisited ksize^2 times (once per (ki, kj));
    # the destination is streamed write-once.
    g = alg.geom
    src_bytes = g.x_size * 4
    dst_lines = g.rows * g.cols / _ELEMS_PER_LINE
    src_lines_once = g.x_size / _ELEMS_PER_LINE
    revisits = g.ksize * g.ksize
    if alg.stride != 1:
        src_lines_once = g.x_size  # strided: per-element line touches
    l1 = (src_lines_once * (revisits if src_bytes > config.l1_kb * 1024 else 1)
          + dst_lines)
    l2 = (src_lines_once * (revisits if src_bytes > config.l2_mb * (1 << 20)
                            else 1) + dst_lines)
    _stalls(cost, config, l1, l2)
    return cost
