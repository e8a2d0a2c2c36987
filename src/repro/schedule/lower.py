"""Lowering: schedule x algorithm -> RVV/SVE driver program.

The lowering emits onto the :class:`~repro.rvv.machine.VectorEngine`
API, so everything downstream — the functional machines, the
trace-lifted and symbolic audit pipelines, ``Simulator.run_trace`` —
consumes generated kernels like any other.  It is the only emitter of
the GEMM, im2col and direct 1x1 kernels (:mod:`repro.kernels` calls it
with the default schedules); ``tests/data/golden_schedule_*.json`` pin
the default listings instruction for instruction.

Strip-mining follows the machines' grant rule: the vector axis
advances by ``vl = min(AVL, LMUL * VLMAX)`` per strip.  An untiled
vector axis requests the whole remainder (the im2col convention); a
tiled one requests ``min(tile, remainder)`` (the GEMM convention) —
this also pins the AVL operand recorded in the trace, which the golden
listings freeze.

fp32 semantics: every loop structure this lowering can produce keeps
the reduction ``k`` strictly increasing per C element.  When the
reduction is blocked (``tile("k", ...)`` + ``place("acc", "memory")``)
the partial C rows are stored and reloaded bit-exactly between blocks,
so *any* legal schedule is bit-identical to
:func:`repro.conv.reference.gemm_fp32`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.rvv.machine import VectorEngine
from repro.schedule.algorithms import (
    CopyAlgorithm,
    CopyOperands,
    MatmulAlgorithm,
    MatmulOperands,
)
from repro.schedule.ir import VL, Schedule


def _strips(
    extent: int, tile: int | str | None, vstep: int
) -> Iterator[tuple[int, int, int]]:
    """Strip-mine the vector axis: yields (start, avl_request, vl).

    ``vl`` mirrors the machines' grant rule ``min(AVL, LMUL * VLMAX)``
    so the loop advances exactly as the emitted ``vsetvl`` will grant.
    """
    done = 0
    while done < extent:
        rem = extent - done
        if tile is None:
            avl = rem
        elif tile == VL:
            avl = min(vstep, rem)
        else:
            assert isinstance(tile, int)
            avl = min(tile, rem)
        vl = min(avl, vstep)
        yield done, avl, vl
        done += vl


@dataclass(frozen=True)
class _Block:
    """One innermost matmul block: a (j strip, i block, k block) triple."""

    j0: int
    avl: int
    vl: int
    i0: int
    rows: int
    k0: int
    kn: int
    first_k: bool


def lower_matmul(
    machine: VectorEngine,
    alg: MatmulAlgorithm,
    sched: Schedule,
    ops: MatmulOperands,
) -> None:
    """Emit the scheduled matmul onto ``machine``.

    Validates the schedule first; an illegal schedule raises
    :class:`~repro.errors.ScheduleError` before any instruction is
    emitted.
    """
    sched.validate()
    lmul = sched.lmul
    lanes = machine.vlen_bits // 32
    vstep = lanes * lmul  # LMUL * VLMAX elements per grant
    mr = sched.mr
    jt = sched.tiles.get("j")
    kt = sched.tiles.get("k")

    i_blocks = [(i0, min(mr, alg.m - i0)) for i0 in range(0, alg.m, mr)]
    if isinstance(kt, int):
        k_blocks = [(k0, min(kt, alg.kd - k0))
                    for k0 in range(0, alg.kd, kt)]
    else:
        k_blocks = [(0, alg.kd)]

    # Loop order: the vector axis contributes its strip loop at its
    # position; the reduction only participates when tiled.
    order = [ax for ax in sched.order if ax != "k" or len(k_blocks) > 1]

    def body(b: _Block) -> None:
        if not sched.setvl_hoist:
            machine.setvl(b.avl, lmul=lmul)
        with machine.alloc.scoped(b.rows + 1, lmul=lmul) as regs:
            acc, b_reg = regs[: b.rows], regs[b.rows]
            if b.first_k:
                for r in range(b.rows):
                    machine.vfmv_v_f(acc[r], 0.0)
            else:
                # Reload the partial C rows stored by the previous
                # reduction block (bit-exact fp32 spill/reload).
                for r in range(b.rows):
                    machine.vle32(acc[r], ops.c + 4 * alg.c_off(b.i0 + r, b.j0))
            a_view = machine.memory.view(ops.a, alg.a_elems)
            for k in range(b.k0, b.k0 + b.kn):
                addr = ops.b + 4 * alg.b_off(k, b.j0)
                if alg.b_elem_stride == 1:
                    machine.vle32(b_reg, addr)
                else:
                    machine.vlse32(b_reg, addr, 4 * alg.b_elem_stride)
                for r in range(b.rows):
                    a_val = float(a_view[alg.a_off(b.i0 + r, k)])
                    machine.scalar_ops(1)  # the scalar load of A[i, k]
                    machine.vfmacc_vf(acc[r], a_val, b_reg)
            for r in range(b.rows):
                machine.vse32(acc[r], ops.c + 4 * alg.c_off(b.i0 + r, b.j0))

    def rec(level: int, ctx: dict[str, tuple[int, ...]]) -> None:
        if level == len(order):
            j0, avl, vl = ctx["j"]
            i0, rows = ctx["i"]
            k0, kn, kb = ctx.get("k", (0, alg.kd, 0))
            body(_Block(j0=j0, avl=avl, vl=vl, i0=i0, rows=rows,
                        k0=k0, kn=kn, first_k=kb == 0))
            return
        ax = order[level]
        if ax == "j":
            for j0, avl, vl in _strips(alg.n, jt, vstep):
                if sched.setvl_hoist:
                    machine.setvl(avl, lmul=lmul)
                rec(level + 1, {**ctx, "j": (j0, avl, vl)})
        elif ax == "i":
            for i0, rows in i_blocks:
                rec(level + 1, {**ctx, "i": (i0, rows)})
        else:
            for kb, (k0, kn) in enumerate(k_blocks):
                rec(level + 1, {**ctx, "k": (k0, kn, kb)})

    rec(0, {})


def lower_copy(
    machine: VectorEngine,
    alg: CopyAlgorithm,
    sched: Schedule,
    ops: CopyOperands,
) -> None:
    """Emit the scheduled im2col copy onto ``machine``."""
    sched.validate()
    lmul = sched.lmul
    lanes = machine.vlen_bits // 32
    vstep = lanes * lmul
    xt = sched.tiles.get("x")
    s = alg.stride

    with machine.alloc.scoped(1, lmul=lmul) as (v,):

        def body(r: int, y: int) -> None:
            for x0, avl, _vl in _strips(alg.w_out, xt, vstep):
                machine.setvl(avl, lmul=lmul)
                src = ops.src + 4 * alg.src_off(r, y, x0)
                if s == 1:
                    machine.vle32(v, src)
                else:
                    machine.vlse32(v, src, 4 * s)
                machine.vse32(v, ops.dst + 4 * alg.dst_off(r, y, x0))

        outer = [ax for ax in sched.order if ax != "x"]
        if outer == ["r", "y"]:
            for r in range(alg.rows):
                for y in range(alg.h_out):
                    body(r, y)
        else:
            for y in range(alg.h_out):
                for r in range(alg.rows):
                    body(r, y)
