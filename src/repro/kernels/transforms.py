"""Vectorized Winograd transform kernels (input, filter, output).

These are the paper's Section 3 transformation kernels, written in the
vector-length-agnostic style of its EPI-intrinsics code and runnable on
both :class:`~repro.rvv.RvvMachine` and :class:`~repro.sve.SveMachine`.

Vectorization strategy — inter-tile parallelism across channels, as the
paper describes: for the input transform, each vector holds one tile
element across ``vl`` *input channels* (strided loads from the CHW
input); for the filter and output transforms, each vector spans *output
channels*.  Each 2D transform is two passes of the 1D transform
sequence produced by :func:`~repro.kernels.common.transform_ops` (the
paper's "approximately 30 instructions" blocks, open-coded at every
application site because RVV has no vector-typed pointers to pass
output registers through a function — the programmability gap Section 3
complains about).  Between the two passes, intermediates bounce through
a per-tile scratch buffer in memory; the standalone in-register
transpose alternatives the paper evaluates are in
:mod:`repro.kernels.transpose`.

Layouts are documented on :class:`~repro.kernels.common.WinogradGeometry`.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.buffers import WinogradBuffers
from repro.kernels.common import (
    QUAD,
    TILES_PER_BLOCK,
    TransformOp,
    WinogradGeometry,
    transform_ops,
)
from repro.rvv.machine import VectorEngine
from repro.winograd.cook_toom import WinogradTransforms, f6x3_transforms


def exec_transform(
    machine: VectorEngine,
    ops: tuple[TransformOp, ...],
    src: list[int],
    dst: list[int],
) -> None:
    """Execute one 1D transform application on live registers.

    ``src`` and ``dst`` must be disjoint register windows (the op
    sequence assumes sources stay valid until the end).
    """
    for op in ops:
        d = dst[op.dst]
        s = src[op.src]
        if op.kind == "mov":
            machine.vmv_v_v(d, s)
        elif op.kind == "mul":
            machine.vfmul_vf(d, s, op.coef)
        elif op.kind == "add":
            machine.vfadd_vv(d, d, s)
        elif op.kind == "sub":
            machine.vfsub_vv(d, d, s)
        else:  # fma
            machine.vfmacc_vf(d, op.coef, s)


def input_transform(
    machine: VectorEngine,
    geom: WinogradGeometry,
    bufs: WinogradBuffers,
    transforms: WinogradTransforms | None = None,
) -> None:
    """Transform every 8x8 input tile of every channel: X -> V.

    Loop structure (mirrored exactly by
    :func:`repro.model.winograd_model.input_transform_model`):

    for each channel block cb (vl = channels in block):
      for each tile t:
        column pass: 8x (8 strided loads over channels, BT application,
                         8 unit scratch stores)
        row pass:    8x (8 unit scratch loads, BT application,
                         8 strided stores into V)
    """
    tf = transforms if transforms is not None else f6x3_transforms()
    bt = tf.BT(np.float32)
    ops = transform_ops(bt)
    ch_stride = geom.hp * geom.wp * 4  # bytes between channels in X
    v_ch_stride = TILES_PER_BLOCK * 4  # bytes between channels in V
    for cb in range(geom.channel_blocks):
        c0 = cb * geom.vlen_elems
        nc = min(geom.vlen_elems, geom.c_in - c0)
        for t in range(geom.num_tiles):
            y0, x0 = geom.tile_origin(t)
            tb, it = divmod(t, TILES_PER_BLOCK)
            machine.setvl(nc)
            with machine.alloc.scoped(16) as regs:
                src, dst = regs[:8], regs[8:]
                for j in range(8):  # column pass
                    for i in range(8):
                        addr = bufs.x + 4 * geom.x_offset(c0, y0 + i, x0 + j)
                        machine.vlse32(src[i], addr, ch_stride)
                    exec_transform(machine, ops, src, dst)
                    for i in range(8):
                        machine.vse32(
                            dst[i], bufs.scratch + 4 * geom.scratch_offset(j, i)
                        )
                for i in range(8):  # row pass
                    for j in range(8):
                        machine.vle32(
                            src[j], bufs.scratch + 4 * geom.scratch_offset(j, i)
                        )
                    exec_transform(machine, ops, src, dst)
                    for j in range(8):
                        p = i * 8 + j
                        machine.vsse32(
                            dst[j],
                            bufs.v + 4 * geom.v_offset(p, tb, c0, it),
                            v_ch_stride,
                        )


def filter_transform(
    machine: VectorEngine,
    geom: WinogradGeometry,
    bufs: WinogradBuffers,
    transforms: WinogradTransforms | None = None,
) -> None:
    """Transform the filters: weights -> U (compact [p][c][k] layout).

    Vectorized over output channels (vl = channels of one k-panel
    quarter); transformed values store unit-stride per (p, c), one
    value per output channel — the plain filter-matrix layout the
    paper's Algorithm 1 B loads read.

    Mirrored by :func:`repro.model.winograd_model.filter_transform_model`.
    """
    tf = transforms if transforms is not None else f6x3_transforms()
    g_mat = tf.G(np.float32)
    ops = transform_ops(g_mat)
    nk_full = geom.k_panel_lanes // QUAD
    w_k_stride = geom.c_in * 9 * 4  # bytes between output channels
    for kp in range(geom.k_panels):
        k0 = kp * (geom.vlen_elems // QUAD)
        nk = min(nk_full, geom.c_out - k0)
        for c in range(geom.c_in):
            machine.setvl(nk)
            with machine.alloc.scoped(17) as regs:
                src, dst = regs[:9], regs[9:]
                # Load the 3x3 filter taps across nk output channels.
                for ki in range(3):
                    for kj in range(3):
                        addr = bufs.weights + 4 * (
                            (k0 * geom.c_in + c) * 9 + ki * 3 + kj
                        )
                        machine.vlse32(src[ki * 3 + kj], addr, w_k_stride)
                # Column pass: A1[:, kj] = G @ g[:, kj]  (3 columns).
                for kj in range(3):
                    col = [src[ki * 3 + kj] for ki in range(3)]
                    exec_transform(machine, ops, col, dst)
                    for i in range(8):
                        machine.vse32(
                            dst[i], bufs.scratch + 4 * geom.scratch_offset(kj, i)
                        )
                # Row pass: U8[i, :] = G @ A1[i, :]^T  (8 rows).
                for i in range(8):
                    for kj in range(3):
                        machine.vle32(
                            src[kj], bufs.scratch + 4 * geom.scratch_offset(kj, i)
                        )
                    exec_transform(machine, ops, src[:3], dst)
                    for jj in range(8):
                        p = i * 8 + jj
                        machine.vse32(dst[jj], bufs.u + 4 * geom.u_offset(p, c, k0))


def output_transform(
    machine: VectorEngine,
    geom: WinogradGeometry,
    bufs: WinogradBuffers,
    transforms: WinogradTransforms | None = None,
) -> None:
    """Inverse-transform the tuple products: M -> Y.

    Vectorized over output channels.  Reading one tile's tuple values
    across the k-panel out of the quad-interleaved M layout is a
    stride-16 (four-float) load — the exact access pattern of the
    paper's strided-transpose workaround (Algorithm 4).  Final results
    scatter into the CHW output with channel-strided stores.

    Mirrored by :func:`repro.model.winograd_model.output_transform_model`.
    """
    tf = transforms if transforms is not None else f6x3_transforms()
    at = tf.AT(np.float32)
    ops = transform_ops(at)
    nk_full = geom.k_panel_lanes // QUAD
    y_k_stride = geom.yp_h * geom.yp_w * 4
    for kp in range(geom.k_panels):
        k0 = kp * (geom.vlen_elems // QUAD)
        nk = min(nk_full, geom.c_out - k0)
        for t in range(geom.num_tiles):
            tb, it = divmod(t, TILES_PER_BLOCK)
            q, e = divmod(it, QUAD)
            ty, tx = divmod(t, geom.grid.tiles_w)
            y0, x0 = ty * 6, tx * 6
            machine.setvl(nk)
            with machine.alloc.scoped(16) as regs:
                src, dst = regs[:8], regs[8:]
                for j in range(8):  # column pass over the 8x8 p grid
                    for i in range(8):
                        p = i * 8 + j
                        base = bufs.m + 4 * (geom.m_offset(p, kp, tb, q) + e)
                        machine.vlse32(src[i], base, QUAD * 4)
                    exec_transform(machine, ops, src, dst)
                    for a in range(6):
                        machine.vse32(
                            dst[a], bufs.scratch + 4 * geom.scratch_offset(j, a)
                        )
                for a in range(6):  # row pass
                    for j in range(8):
                        machine.vle32(
                            src[j], bufs.scratch + 4 * geom.scratch_offset(j, a)
                        )
                    exec_transform(machine, ops, src, dst)
                    for b in range(6):
                        addr = bufs.y + 4 * geom.y_offset(k0, y0 + a, x0 + b)
                        machine.vsse32(dst[b], addr, y_k_stride)
