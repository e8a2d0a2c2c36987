"""The kernel registry and audit driver behind ``repro lint-kernels``.

Every shipped kernel variant is registered as a :class:`KernelSpec`: a
harness that executes the kernel on a freshly-prepared machine, plus
the machine flavors it supports and whether its total work is expected
to be VLEN-invariant.  :func:`audit_kernel` runs one spec at every
requested VLEN on one machine flavor, lifts the traces, and runs the
full pass pipeline; :func:`audit_kernels` sweeps the registry.

Audit shapes are chosen so no problem dimension coincides with a
VLMAX of the swept VLENs (which would mask — or falsely trigger — the
pinned-vector-length heuristic of the VLA pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.analysis.findings import KernelAuditReport
from repro.analysis.ir import LiftedProgram, lift
from repro.analysis.pipeline import PASS_IDS, analyze_programs
from repro.errors import ConfigError
from repro.kernels.buffers import GemmBuffers, Im2colBuffers, WinogradBuffers
from repro.kernels.common import GemmGeometry, Im2colGeometry, WinogradGeometry
from repro.kernels.direct import direct_conv1x1_sim
from repro.kernels.drivers import im2col_gemm_conv2d_sim, winograd_conv2d_sim
from repro.kernels.gemm import gemm_kernel
from repro.kernels.im2col import im2col_kernel
from repro.kernels.streaming import run_streaming
from repro.kernels.transforms import (
    filter_transform,
    input_transform,
    output_transform,
)
from repro.kernels.transpose import (
    transpose4_indexed,
    transpose4_native,
    transpose4_strided,
)
from repro.kernels.tuple_mult import (
    INDEXED,
    SLIDEUP,
    SLIDEUP_LOG,
    NATIVE,
    tuple_multiplication,
)
from repro.rvv import Memory, RvvMachine, RvvPlusMachine, Tracer
from repro.rvv.machine import VectorEngine
from repro.schedule.ir import Schedule
from repro.schedule.library import KTILE_GEMM, LMUL4_GEMM, XTILE_COPY
from repro.sve import SveMachine

#: The paper's co-design sweep points; the VLA pass diffs across these.
DEFAULT_VLENS: tuple[int, ...] = (512, 1024, 2048, 4096)

#: Machine flavor -> constructor.
MACHINE_FLAVORS: dict[str, type[VectorEngine]] = {
    "rvv": RvvMachine,
    "rvv+": RvvPlusMachine,
    "sve": SveMachine,
}


@dataclass(frozen=True)
class KernelSpec:
    """One auditable kernel variant.

    ``run`` executes the kernel on a capture-tracing machine (staging
    its own inputs through untraced driver-side writes).  ``fixed_work``
    declares whether total compute/store elements are VLEN-invariant —
    per-vector-register primitives like the transposes do more work per
    call at larger VLEN by design and opt out.  ``fast`` marks the
    subset the tier-1 test suite audits on every run.
    """

    name: str
    run: Callable[[VectorEngine], None]
    machines: tuple[str, ...] = ("rvv", "sve")
    fixed_work: bool = True
    fast: bool = True


# ----------------------------------------------------------------------
# Harnesses.  Shapes deliberately avoid VLMAX collisions: no dimension
# that strip-mines equals 16/32/64/128 (= VLMAX at the swept VLENs).
# ----------------------------------------------------------------------
def _winograd_geom(machine: VectorEngine) -> WinogradGeometry:
    return WinogradGeometry(c_in=4, h=12, w=12, c_out=12, pad=1,
                            vlen_elems=machine.vlen_bits // 32)


def _stage_winograd(machine: VectorEngine) -> tuple[WinogradGeometry, WinogradBuffers]:
    rng = np.random.default_rng(11)
    geom = _winograd_geom(machine)
    bufs = WinogradBuffers.allocate(machine, geom)
    bufs.load_input(machine, geom,
                    rng.standard_normal((geom.c_in, geom.h, geom.w))
                    .astype(np.float32))
    bufs.load_weights(machine, geom,
                      rng.standard_normal((geom.c_out, geom.c_in, 3, 3))
                      .astype(np.float32))
    return geom, bufs


def _tuple_mult_harness(variant: str) -> Callable[[VectorEngine], None]:
    def run(machine: VectorEngine) -> None:
        rng = np.random.default_rng(13)
        geom, bufs = _stage_winograd(machine)
        machine.memory.fill_noise(bufs.v, geom.v_size, rng)
        machine.memory.fill_noise(bufs.u, geom.u_size, rng)
        tuple_multiplication(machine, geom, bufs, variant=variant)
    return run


def _transform_harness(which: str) -> Callable[[VectorEngine], None]:
    def run(machine: VectorEngine) -> None:
        rng = np.random.default_rng(17)
        geom, bufs = _stage_winograd(machine)
        if which == "input":
            input_transform(machine, geom, bufs)
        elif which == "filter":
            filter_transform(machine, geom, bufs)
        else:
            machine.memory.fill_noise(bufs.m, geom.m_size, rng)
            output_transform(machine, geom, bufs)
    return run


def _transpose_harness(which: str) -> Callable[[VectorEngine], None]:
    def run(machine: VectorEngine) -> None:
        rng = np.random.default_rng(41)
        vl = machine.setvl(machine.vlen_bits // 32)
        src = machine.memory.alloc_f32(4 * vl, label="transpose.src")
        buf = machine.memory.alloc_f32(4 * vl, label="transpose.buf")
        out = machine.memory.alloc_f32(4 * vl, label="transpose.out")
        machine.memory.fill_noise(src, 4 * vl, rng)
        nregs = 9 if which == "indexed" else 8
        with machine.alloc.scoped(nregs) as regs:
            ins, outs = list(regs[:4]), list(regs[4:8])
            for r in range(4):
                machine.vle32(ins[r], src + 4 * vl * r)
            if which == "indexed":
                transpose4_indexed(machine, ins, outs, buf, regs[8])
            elif which == "strided":
                transpose4_strided(machine, ins, outs, buf)
            else:
                transpose4_native(machine, ins, outs)
            for g in range(4):
                machine.vse32(outs[g], out + 4 * vl * g)
    return run


def _gemm_harness(
    sched: Schedule | None = None,
) -> Callable[[VectorEngine], None]:
    def run(machine: VectorEngine) -> None:
        rng = np.random.default_rng(19)
        geom = GemmGeometry(m=6, kd=9, n=40,
                            vlen_elems=machine.vlen_bits // 32)
        bufs = GemmBuffers.allocate(machine, geom)
        bufs.load(machine, geom,
                  rng.standard_normal((geom.m, geom.kd)).astype(np.float32),
                  rng.standard_normal((geom.kd, geom.n)).astype(np.float32))
        gemm_kernel(machine, geom, bufs, sched)
    return run


def _im2col_harness(
    sched: Schedule | None = None,
) -> Callable[[VectorEngine], None]:
    def run(machine: VectorEngine) -> None:
        rng = np.random.default_rng(23)
        geom = Im2colGeometry(c_in=3, h=10, w=20, ksize=3, stride=1, pad=1)
        bufs = Im2colBuffers.allocate(machine, geom)
        bufs.load_input(machine, geom,
                        rng.standard_normal((geom.c_in, geom.h, geom.w))
                        .astype(np.float32))
        im2col_kernel(machine, geom, bufs, sched)
    return run


def _direct1x1_harness(
    c_in: int = 4, h: int = 5, w: int = 20, c_out: int = 6, stride: int = 1,
) -> Callable[[VectorEngine], None]:
    def run(machine: VectorEngine) -> None:
        rng = np.random.default_rng(29)
        x = rng.standard_normal((c_in, h, w)).astype(np.float32)
        wt = rng.standard_normal((c_out, c_in, 1, 1)).astype(np.float32)
        direct_conv1x1_sim(machine, x, wt, stride=stride)
    return run


def _streaming_harness(kernel: str, lmul: int = 1) -> Callable[[VectorEngine], None]:
    def run(machine: VectorEngine) -> None:
        run_streaming(kernel, machine, n=100, lmul=lmul)
    return run


def _winograd_driver_harness(machine: VectorEngine) -> None:
    rng = np.random.default_rng(31)
    x = rng.standard_normal((4, 12, 12)).astype(np.float32)
    w = rng.standard_normal((12, 4, 3, 3)).astype(np.float32)
    winograd_conv2d_sim(machine, x, w, pad=1, variant=SLIDEUP)


def _im2col_driver_harness(machine: VectorEngine) -> None:
    rng = np.random.default_rng(37)
    x = rng.standard_normal((3, 10, 10)).astype(np.float32)
    w = rng.standard_normal((6, 3, 3, 3)).astype(np.float32)
    im2col_gemm_conv2d_sim(machine, x, w, stride=1, pad=1)


#: Every registered kernel variant, audited by ``repro lint-kernels``.
KERNEL_SPECS: tuple[KernelSpec, ...] = (
    KernelSpec(f"tuple_mult/{INDEXED}", _tuple_mult_harness(INDEXED)),
    KernelSpec(f"tuple_mult/{SLIDEUP}", _tuple_mult_harness(SLIDEUP)),
    KernelSpec(f"tuple_mult/{SLIDEUP_LOG}", _tuple_mult_harness(SLIDEUP_LOG)),
    KernelSpec(f"tuple_mult/{NATIVE}", _tuple_mult_harness(NATIVE),
               machines=("rvv+",)),
    KernelSpec("transpose4/indexed", _transpose_harness("indexed"),
               fixed_work=False),
    KernelSpec("transpose4/strided", _transpose_harness("strided"),
               fixed_work=False),
    KernelSpec("transpose4/native", _transpose_harness("native"),
               machines=("rvv+",), fixed_work=False),
    KernelSpec("winograd/input_transform", _transform_harness("input")),
    KernelSpec("winograd/filter_transform", _transform_harness("filter")),
    KernelSpec("winograd/output_transform", _transform_harness("output")),
    KernelSpec("gemm", _gemm_harness()),
    KernelSpec("im2col", _im2col_harness()),
    KernelSpec("direct1x1", _direct1x1_harness()),
    # Stride 2: one lowered matmul per output row, strided input loads.
    KernelSpec("direct1x1@s2",
               _direct1x1_harness(c_in=3, h=7, w=41, c_out=10, stride=2)),
    KernelSpec("streaming/memcpy", _streaming_harness("memcpy")),
    KernelSpec("streaming/axpy", _streaming_harness("axpy")),
    KernelSpec("streaming/dot", _streaming_harness("dot")),
    KernelSpec("streaming/axpy@lmul2", _streaming_harness("axpy", lmul=2),
               machines=("rvv",)),
    KernelSpec("conv/winograd", _winograd_driver_harness, fast=False),
    KernelSpec("conv/im2col_gemm", _im2col_driver_harness, fast=False),
    # Non-default schedules (repro.schedule.library) on the same harness
    # problems: LMUL grouping, reduction blocking and a tiled copy stay
    # under continuous audit.  LMUL > 1 groups are RVV-only: the SVE
    # flavor implements fp32, LMUL=1 kernels (its ``setvl`` rejects
    # anything else), matching the ``streaming/axpy@lmul2`` precedent.
    KernelSpec("sched/gemm@ijk-lmul4", _gemm_harness(LMUL4_GEMM),
               machines=("rvv",)),
    KernelSpec("sched/gemm@ktile", _gemm_harness(KTILE_GEMM)),
    KernelSpec("sched/im2col@yrx-xtile", _im2col_harness(XTILE_COPY)),
)


def find_spec(name: str) -> KernelSpec:
    for spec in KERNEL_SPECS:
        if spec.name == name:
            return spec
    known = ", ".join(s.name for s in KERNEL_SPECS)
    raise ConfigError(f"unknown kernel {name!r} (known: {known})")


def fast_specs() -> tuple[KernelSpec, ...]:
    return tuple(s for s in KERNEL_SPECS if s.fast)


def _lift_run(spec: KernelSpec, flavor: str, vlen: int) -> LiftedProgram:
    machine = MACHINE_FLAVORS[flavor](
        vlen, memory=Memory(1 << 26), tracer=Tracer(capture=True))
    spec.run(machine)
    return lift(machine.tracer, vlen_bits=vlen,
                extents=machine.memory.allocations)


def audit_kernel(
    spec: KernelSpec,
    flavor: str = "rvv",
    vlens: tuple[int, ...] = DEFAULT_VLENS,
) -> KernelAuditReport:
    """Execute, lift and analyze one kernel variant at every VLEN."""
    if flavor not in MACHINE_FLAVORS:
        raise ConfigError(f"unknown machine flavor {flavor!r}")
    programs = {v: _lift_run(spec, flavor, v) for v in vlens}
    findings = analyze_programs(programs, fixed_work=spec.fixed_work)
    return KernelAuditReport(
        kernel=spec.name,
        machine=flavor,
        vlens=tuple(vlens),
        findings=findings,
        instr_counts={v: len(p) for v, p in programs.items()},
        passes_run=PASS_IDS,
    )


def audit_kernels(
    specs: Iterable[KernelSpec] | None = None,
    vlens: tuple[int, ...] = DEFAULT_VLENS,
) -> list[KernelAuditReport]:
    """Audit specs (default: the whole registry) on all their machines."""
    reports = []
    for spec in (KERNEL_SPECS if specs is None else specs):
        for flavor in spec.machines:
            reports.append(audit_kernel(spec, flavor, vlens))
    return reports
