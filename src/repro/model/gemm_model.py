"""Closed-form instruction/traffic models of the im2col+GEMM path."""

from __future__ import annotations

import numpy as np

from repro.isa import OpClass
from repro.kernels.common import GemmGeometry, Im2colGeometry
from repro.model.traffic import COLD, PhaseModel, lines_per_access


def gemm_model(geom: GemmGeometry, cols_distance: float | None = None) -> PhaseModel:
    """The blocked VLA GEMM kernel (mirrors :func:`repro.kernels.gemm`).

    Args:
        geom: GEMM dimensions and vector length.
        cols_distance: reuse distance of the B matrix's first read —
            when GEMM consumes a column matrix the im2col kernel just
            wrote, the distance is the column-matrix volume; ``None``
            means B arrives cold (standalone GEMM).

    The central cache effect: the B panel of one N-panel pass is
    ``Kd * vl * 4`` bytes and is re-streamed for every M block — the
    reuse distance that grows linearly with the vector length and
    drives the paper's Table 1 (YOLOv3 L2 miss rate rising with VLEN)
    and its L2-size scaling.
    """
    ph = PhaseModel("gemm")
    n_full, tail = divmod(geom.n, geom.vlen_elems)
    # Accumulator rows of each M block (the last block may be short).
    rows = np.minimum(geom.mr, geom.m - geom.mr * np.arange(geom.m_blocks))
    first_dist = cols_distance if cols_distance is not None else COLD
    # Full panels first, then the tail panel: each distinct panel width
    # contributes one batch of instruction counts and one run of traffic.
    for vl, panels in ((geom.vlen_elems, n_full), (tail, 1 if tail else 0)):
        if not panels:
            continue
        b_lines = lines_per_access(vl, 4)
        # Instruction counts for the whole M loop of these panels,
        # batched: the blocks tile M exactly (sum of rows over blocks ==
        # m), so the per-block counts collapse to closed forms with
        # identical totals.
        ph.add_instr(OpClass.VSETVL, geom.m_blocks * panels, vl)
        ph.add_instr(OpClass.VMOVE, geom.m * panels, vl)  # accumulator init
        ph.add_instr(OpClass.VLOAD_UNIT, geom.kd * geom.m_blocks * panels, vl)  # B
        ph.add_instr(OpClass.SCALAR, geom.kd * geom.m * panels, 1)  # A loads
        ph.add_instr(OpClass.VFMA, geom.kd * geom.m * panels, vl)
        ph.add_instr(OpClass.VSTORE_UNIT, geom.m * panels, vl)  # C rows
        # Traffic of one panel, two classes per M block in loop order:
        # the block's B panel read, then its C row stores.  The first
        # block reads B at the cross-kernel distance; every later block
        # re-streams the panel at the one-block volume d_mb.
        d_mb = geom.kd * (vl * 4 + rows * 4.0 / 16) + rows * vl * 4
        d_mb[0] = first_dist
        accesses = np.empty(2 * geom.m_blocks)
        accesses[0::2] = geom.kd * b_lines
        accesses[1::2] = rows * b_lines
        distance = np.empty(2 * geom.m_blocks)
        distance[0::2] = d_mb
        distance[1::2] = COLD
        # A scalar loads are issued as SCALAR instructions and the
        # weight block stays cache-resident between uses (it is tiny
        # next to the column matrix), so — exactly like the functional
        # kernel, which accounts them as scalar ops — no vector-memory
        # traffic is attributed to A.
        ph.add_traffic(
            "B panel read / C cold st", accesses, distance,
            is_store=np.tile([False, True], geom.m_blocks), repeat=panels,
        )
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
