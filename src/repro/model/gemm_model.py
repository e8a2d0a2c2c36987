"""Closed-form instruction/traffic models of the im2col+GEMM path."""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.isa import OpClass
from repro.kernels.common import GemmGeometry, Im2colGeometry, ceil_div
from repro.model.traffic import COLD, FloatArray, PhaseModel, lines_per_access
from repro.schedule.ir import VL, Schedule, default_matmul_schedule


def gemm_model(
    geom: GemmGeometry,
    cols_distance: float | None = None,
    schedule: Schedule | None = None,
) -> PhaseModel:
    """The scheduled VLA GEMM kernel (mirrors :func:`repro.kernels.gemm`).

    Args:
        geom: GEMM dimensions and vector length.
        cols_distance: reuse distance of the B matrix's first read —
            when GEMM consumes a column matrix the im2col kernel just
            wrote, the distance is the column-matrix volume; ``None``
            means B arrives cold (standalone GEMM).
        schedule: the matmul schedule the kernel lowers; ``None`` is the
            shipped kernel's, :func:`~repro.schedule.default_matmul_schedule`
            at ``geom.mr``.

    The counts are closed forms over the split
    :func:`~repro.schedule.lower_matmul` walks: strips of the vector
    axis (``LMUL * lanes`` columns, or its tile), blocks of ``mr`` rows,
    reduction blocks, and one ``vsetvl`` per block or per strip.  They
    equal the traced counts of every legal schedule.

    The traffic classes follow the schedule's loop order.  Each block
    (strip, row block, reduction block) reads its B block, reloads its
    C rows unless it is the first reduction block, and stores them.  A
    B block is first read at ``cols_distance``; every later row block
    re-reads it after the blocks nested inside the row loop, and a C
    row is reloaded after the blocks nested inside the reduction loop.
    With the rows innermost, as in the shipped kernel, the B panel of
    ``Kd * vl * 4`` bytes is re-streamed for every M block — the reuse
    distance that grows linearly with the vector length and drives the
    paper's Table 1 (YOLOv3 L2 miss rate rising with VLEN) and its
    L2-size scaling.
    """
    sched = (default_matmul_schedule(geom.mr) if schedule is None
             else schedule.validate())
    ph = PhaseModel("gemm")
    tiles = sched.tiles
    mr, jt, kt = tiles["i"], tiles.get("j"), tiles.get("k")
    vstep = geom.vlen_elems * sched.lmul
    step = vstep if jt is None or jt == VL else min(int(jt), vstep)
    n_full, tail = divmod(geom.n, step)
    strips = n_full + (1 if tail else 0)
    # Rows of each M block and depth of each reduction block (the last
    # of each may be short), as an (M blocks, 1) and a (1, K blocks)
    # grid; an untiled reduction is one block of depth Kd.
    m_blocks = ceil_div(geom.m, mr)
    rows = np.minimum(mr, geom.m - mr * np.arange(m_blocks))[:, None]
    k_blocks = ceil_div(geom.kd, kt) if isinstance(kt, int) else 1
    kn = (np.minimum(kt, geom.kd - kt * np.arange(k_blocks))[None, :]
          if k_blocks > 1 else geom.kd)
    # The reduction loop only exists when it is tiled.
    order = (sched.order if k_blocks > 1
             else tuple(ax for ax in sched.order if ax != "k"))
    setvls = (math.prod({"j": strips, "i": m_blocks, "k": k_blocks}[ax]
                        for ax in order[:order.index("j")])
              if sched.setvl_hoist else m_blocks * k_blocks)
    in_i = order[order.index("i") + 1:]
    in_k = order[order.index("k") + 1:] if k_blocks > 1 else ()
    k_first = "k" in order and order.index("k") < order.index("i")
    per_block = 3 if k_blocks > 1 else 2
    first_dist = cols_distance if cols_distance is not None else COLD

    def volume(axes: tuple[str, ...], vl: int) -> FloatArray:
        """Volume of one block at panel width ``vl`` (B block bytes,
        A block bytes / 16, C row bytes), summed over every iteration
        of the loops in ``axes``; the other loops stay at the block's
        own."""
        vl_sum, vl_cnt = (geom.n, strips) if "j" in axes else (vl, 1)
        rows_sum, rows_cnt = (geom.m, m_blocks) if "i" in axes else (rows, 1)
        kn_sum, kn_cnt = (geom.kd, k_blocks) if "k" in axes else (kn, 1)
        # Every term is a multiple of 1/4 far below 2**53, so the sums
        # are exact in any order.
        return (kn_sum * (vl_sum * 4 * rows_cnt + rows_sum * (vl_cnt / 4))
                + rows_sum * (vl_sum * 4 * kn_cnt))

    def blocks(fields: list[Any]) -> FloatArray:
        """One value per class, classes in block order and each block's
        fields in turn: ``fields[c]`` broadcasts over the blocks grid."""
        out = np.empty((k_blocks, m_blocks, per_block) if k_first
                       else (m_blocks, k_blocks, per_block))
        for c, value in enumerate(fields):
            out[..., c] = np.transpose(value) if k_first else value
        return out.reshape(-1)

    is_store = np.zeros(per_block * m_blocks * k_blocks, dtype=bool)
    is_store[per_block - 1::per_block] = True  # each block's C stores
    # Full panels first, then the tail panel: each distinct panel width
    # contributes one batch of instruction counts and one run of traffic.
    for vl, panels in ((step, n_full), (tail, 1 if tail else 0)):
        if not panels:
            continue
        # Instruction counts of these panels: the blocks tile M and the
        # reduction exactly, so the per-block counts collapse to closed
        # forms with identical totals.
        ph.add_instr(OpClass.VSETVL, setvls * panels, vl)
        ph.add_instr(OpClass.VMOVE, geom.m * panels, vl)  # accumulator init
        ph.add_instr(OpClass.VLOAD_UNIT,  # B rows, then C row reloads
                     (geom.kd * m_blocks + geom.m * (k_blocks - 1)) * panels, vl)
        ph.add_instr(OpClass.SCALAR, geom.kd * geom.m * panels, 1)  # A loads
        ph.add_instr(OpClass.VFMA, geom.kd * geom.m * panels, vl)
        ph.add_instr(OpClass.VSTORE_UNIT, geom.m * k_blocks * panels, vl)  # C rows
        # Traffic of one panel, per block in loop order: the B block
        # read, then the C row stores.  The first M block reads B at the
        # cross-kernel distance, every later one after the blocks nested
        # inside the M loop.  The first reduction block's stores are
        # cold; every later block first reloads its C rows, after the
        # blocks nested inside the reduction loop, and stores them one
        # block volume after that reload.
        b_lines = lines_per_access(vl, 4)
        b_dist = volume(in_i, vl)
        b_dist[0] = first_dist
        c_lines = rows * b_lines
        if k_blocks > 1:
            later_k = np.arange(k_blocks) > 0
            accesses = [np.where(later_k, c_lines, 0.0), kn * b_lines, c_lines]
            distance = [volume(in_k, vl), b_dist,
                        np.where(later_k, volume((), vl), COLD)]
        else:
            accesses = [kn * b_lines, c_lines]
            distance = [b_dist, COLD]
        # A scalar loads are issued as SCALAR instructions and the
        # weight block stays cache-resident between uses (it is tiny
        # next to the column matrix), so — exactly like the functional
        # kernel, which accounts them as scalar ops — no vector-memory
        # traffic is attributed to A.
        ph.add_traffic("C reload / B block read / C st", blocks(accesses),
                       blocks(distance), is_store=is_store, repeat=panels)
    return ph


def im2col_model_for(geom: Im2colGeometry, vlen_elems: int) -> PhaseModel:
    """The VLA im2col kernel at a given vector length."""
    ph = PhaseModel("im2col")
    s = geom.stride
    w_out = geom.w_out
    strips_full, tail = divmod(w_out, vlen_elems)
    strips = strips_full + (1 if tail else 0)
    rows = geom.rows
    n_oy = geom.h_out
    per_row = n_oy * strips
    ph.add_instr(OpClass.VSETVL, rows * per_row, min(vlen_elems, w_out))
    load_class = OpClass.VLOAD_UNIT if s == 1 else OpClass.VLOAD_STRIDED
    # Element accounting: strips move w_out elements per output row.
    full_loads = rows * n_oy * strips_full
    tail_loads = rows * n_oy * (1 if tail else 0)
    if full_loads:
        ph.add_instr(load_class, full_loads, vlen_elems)
        ph.add_instr(OpClass.VSTORE_UNIT, full_loads, vlen_elems)
    if tail_loads:
        ph.add_instr(load_class, tail_loads, tail)
        ph.add_instr(OpClass.VSTORE_UNIT, tail_loads, tail)

    # Traffic.  One (c, ki, kj) pass reads a shifted copy of the input
    # plane (h_out rows of w_out elements at stride s) and writes one
    # cols row: pass volume D_pass.  The plane's lines are cold at
    # (ki, kj) = (0, 0) and re-read at D_pass (kj steps) or ~3 D_pass
    # (ki steps) after.  Strip accesses land at arbitrary 4-byte
    # alignments (the kj/oy offsets), so a strip of span b bytes
    # touches (b + 56)/64 lines in expectation.
    def _strip_lines(elems: int, elem_stride: int) -> float:
        if elem_stride >= 64:
            return float(elems)
        span = (elems - 1) * elem_stride + 4
        return (span + 56) / 64.0

    strip_widths = [vlen_elems] * strips_full + ([tail] if tail else [])
    # Touched lines per output row (per-strip, with alignment) vs the
    # distinct lines of the row treated as one contiguous region —
    # adjacent strips share their boundary lines, and those re-touches
    # hit at a tiny distance.
    x_touch_per_oy = sum(_strip_lines(wd, 4 * s) for wd in strip_widths)
    x_row_lines = _strip_lines(w_out, 4 * s)
    cols_touch_per_oy = sum(_strip_lines(wd, 4) for wd in strip_widths)
    cols_row_lines = _strip_lines(w_out, 4)
    d_pass = (x_row_lines + cols_row_lines) * 64.0 * n_oy
    k2 = geom.ksize * geom.ksize
    c_in = geom.c_in
    # X: cold on the (ki, kj) = (0, 0) pass; every later pass re-reads
    # the plane it shifted over one pass ago, at distance D_pass.
    ph.add_traffic("X cold", c_in * x_row_lines * n_oy, COLD)
    ph.add_traffic(
        "X pass reuse",
        c_in * (k2 - 1) * x_row_lines * n_oy,
        d_pass,
    )
    ph.add_traffic(
        "X strip re-touch",
        c_in * k2 * (x_touch_per_oy - x_row_lines) * n_oy,
        (x_row_lines + cols_row_lines) * 64.0,
    )
    # Each cols row is one contiguous region (consecutive oy segments
    # share their boundary lines), so the distinct line count is exactly
    # the region size; every other touch is a near-distance re-touch.
    cols_region = geom.cols_size * 4.0
    cols_cold = cols_region / 64.0
    cols_touched = rows * cols_touch_per_oy * n_oy
    ph.add_traffic("cols cold st", cols_cold, COLD, is_store=True,
                   region=cols_region)
    ph.add_traffic(
        "cols re-touch st",
        max(cols_touched - cols_cold, 0.0),
        (x_row_lines + cols_row_lines) * 64.0,
        is_store=True,
        region=cols_region,
    )
    return ph
