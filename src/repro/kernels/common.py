"""Shared pieces of the vectorized kernels and their analytical models.

The trace-validation contract of DESIGN.md requires the analytical
stream generators of :mod:`repro.model` to reproduce the functional
kernels' instruction streams *exactly*.  The pieces both sides must
agree on live here:

- :func:`transform_ops` — the scalar-coefficient operation sequence that
  applies one 1D Winograd transform matrix to a set of live vector
  registers (what the open-coded "approximately 30 instructions" of the
  paper's Section 3 do).  The kernel executes it; the model counts it.
- :class:`WinogradGeometry` — every derived size and buffer layout of
  the blocked Winograd pipeline (tile grid, channel/output panels, the
  quad-replicated filter layout, buffer strides).
- :class:`GemmGeometry` / :class:`Im2colGeometry` — the same for the
  im2col+GEMM path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigError
from repro.winograd.tiles import TileGrid

#: Tuple positions per 2D F(6x6, 3x3) tile.
TUPLE_POSITIONS = 64

#: Tiles per tile-block in the tuple-multiplication microkernel: one
#: block of 64 tiles is covered by 16 quad accumulators.
TILES_PER_BLOCK = 64

#: Quad size: the microkernel replicates 4 consecutive tile values.
QUAD = 4

#: Per-tuple-position plane skew, in fp32 elements (one cache line).
#: The V/U/M tensors hold 64 parallel planes (one per tuple position)
#: whose natural stride is a large power of two for power-of-two layer
#: dimensions — which would alias every plane onto the same cache sets.
#: Skewing each plane by one line keeps the plane stride odd in lines
#: (coprime with any power-of-two set count) while preserving the
#: 64-byte alignment of every block the kernels address.
PLANE_SKEW = 16


@dataclass(frozen=True)
class TransformOp:
    """One vector instruction of a 1D transform application.

    ``kind`` is one of ``mov`` (copy), ``mul`` (vfmul.vf), ``add``
    (vfadd.vv), ``sub`` (vfsub.vv), ``fma`` (vfmacc.vf/vfnmsac.vf).
    ``dst``/``src`` index the destination and source registers within
    the transform's register window; ``coef`` is the scalar coefficient.
    """

    kind: str
    dst: int
    src: int
    coef: float = 0.0


def transform_ops(mat: np.ndarray) -> tuple[TransformOp, ...]:
    """Operation sequence computing ``out_i = sum_k mat[i, k] * in_k``.

    Zero coefficients are skipped and +/-1 coefficients use cheaper
    add/sub/copy instructions — exactly how hand-written intrinsics code
    (and the paper's ~30-instruction sequences) exploits the transform
    matrices' structure.

    The sequence touches each destination register exactly once as its
    first write, so destinations may alias unused sources only after
    all reads of that source are done; the kernels avoid the issue by
    using disjoint source/destination windows.
    """
    ops: list[TransformOp] = []
    rows, cols = mat.shape
    for i in range(rows):
        first = True
        for k in range(cols):
            c = float(mat[i, k])
            if c == 0.0:
                continue
            if first:
                if c == 1.0:
                    ops.append(TransformOp("mov", i, k))
                else:
                    ops.append(TransformOp("mul", i, k, c))
                first = False
            else:
                if c == 1.0:
                    ops.append(TransformOp("add", i, k))
                elif c == -1.0:
                    ops.append(TransformOp("sub", i, k))
                else:
                    ops.append(TransformOp("fma", i, k, c))
        if first:
            # An all-zero matrix row still must define its output.
            ops.append(TransformOp("mul", i, 0, 0.0))
    return tuple(ops)


def transform_op_class_counts(mat: np.ndarray) -> dict[str, int]:
    """Instruction-class counts of one application of ``mat``.

    Returns counts keyed by the opclass value each kind maps to:
    ``mov -> vmove``, ``mul/add/sub -> vfarith``, ``fma -> vfma``.
    """
    kinds = {"vmove": 0, "vfarith": 0, "vfma": 0}
    for op in transform_ops(mat):
        if op.kind == "mov":
            kinds["vmove"] += 1
        elif op.kind == "fma":
            kinds["vfma"] += 1
        else:
            kinds["vfarith"] += 1
    return kinds


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


#: Legal RVV 1.0 register-group multipliers (integer LMUL).
LMUL_CHOICES: tuple[int, ...] = (1, 2, 4, 8)


def validate_lmul(lmul: int) -> None:
    """Reject register-group multipliers RVV 1.0 does not define.

    Shared by the streaming micro-kernels and the schedule DSL so both
    agree on what a legal grouping is (fractional LMUL is out of scope:
    the kernels are fp32/SEW=32 throughout).
    """
    if lmul not in LMUL_CHOICES:
        raise ConfigError(f"LMUL must be 1, 2, 4 or 8, got {lmul}")


@dataclass(frozen=True)
class WinogradGeometry:
    """All derived sizes and layouts of the blocked Winograd pipeline.

    The pipeline and its buffer layouts (addresses are element offsets
    into one contiguous fp32 arena; byte addresses are 4x):

    1. **Padded input** ``X[c][y][x]`` — CHW with the convolution
       padding plus an 8-element safety margin baked in, so border
       tiles load uniformly (no per-edge masking; see DESIGN.md).
    2. **Transformed input** ``V[p][tb][c][i]`` — tuple position p,
       tile-block tb (64 tiles), channel c, tile-within-block i.  The
       innermost 64-float runs are what the tuple-multiplication quad
       replication reads.
    3. **Transformed filters** ``U[p][c][k]`` — compact (one value per
       output channel, as the plain filter matrix of the paper's
       Algorithm 1); the tuple-multiplication kernel expands each
       loaded panel four-fold in-register with one ``vrgather`` so that
       lane ``4m + e`` carries the value for output channel ``k0 + m``.
    4. **Tuple products** ``M[p][kp][tb][q][l]`` — per tuple position,
       k-panel, tile-block and quad, one vector of lanes
       ``l = 4*(k - k0) + e`` holding ``M_p[tile 4q+e, k]``.
    5. **Padded output** ``Y[k][yy][xx]`` — tiles_h*6 x tiles_w*6,
       cropped to (h_out, w_out) by the driver.
    """

    c_in: int
    h: int
    w: int
    c_out: int
    pad: int
    vlen_elems: int

    def __post_init__(self) -> None:
        if self.vlen_elems < 16 or self.vlen_elems % 4:
            raise ConfigError(
                f"Winograd kernels need vlen >= 16 fp32 lanes in multiples "
                f"of 4, got {self.vlen_elems}"
            )
        if self.pad not in (0, 1):
            raise ConfigError(f"3x3 Winograd uses pad 0 or 1, got {self.pad}")

    # -- tile grid ------------------------------------------------------
    @cached_property
    def grid(self) -> TileGrid:
        return TileGrid(h_in=self.h, w_in=self.w, pad=self.pad, m=6, n=8)

    @cached_property
    def num_tiles(self) -> int:
        return self.grid.num_tiles

    @cached_property
    def tile_blocks(self) -> int:
        return ceil_div(self.num_tiles, TILES_PER_BLOCK)

    # -- vector panels ---------------------------------------------------
    @property
    def k_panel_lanes(self) -> int:
        """Lanes of one output-channel panel (vl of tuple mult)."""
        return min(self.vlen_elems, QUAD * self.c_out)

    @property
    def k_panels(self) -> int:
        return ceil_div(QUAD * self.c_out, self.vlen_elems)

    @property
    def k_panels_per_block(self) -> int:
        """k-panels per tuple-multiplication block (fixed blocking).

        The tuple-multiplication kernel processes output channels in
        blocks of ~32 (128 lanes' worth), a fixed register/cache
        blocking constant: the filter slab revisited per tile block
        stays bounded without tuning for any particular cache size.
        """
        return max(1, ceil_div(128, self.vlen_elems))

    @property
    def k_panel_blocks(self) -> int:
        return ceil_div(self.k_panels, self.k_panels_per_block)

    @property
    def channel_block_lanes(self) -> int:
        """Lanes of one channel block (vl of the input transform)."""
        return min(self.vlen_elems, self.c_in)

    @property
    def channel_blocks(self) -> int:
        return ceil_div(self.c_in, self.vlen_elems)

    # -- padded input buffer ---------------------------------------------
    @property
    def hp(self) -> int:
        """Padded input height: pad + data + tile overrun margin."""
        return self.grid.tiles_h * 6 + 8

    @property
    def wp(self) -> int:
        return self.grid.tiles_w * 6 + 8

    @property
    def x_size(self) -> int:
        return self.c_in * self.hp * self.wp

    def x_offset(self, c: int, y: int, x: int) -> int:
        """Element offset of padded-space coordinates (pad included)."""
        return (c * self.hp + y) * self.wp + x

    # -- transformed input V[p][tb][c][i] (plane-skewed) -------------------
    @property
    def v_plane(self) -> int:
        """Elements per tuple-position plane of V, including the skew."""
        return self.tile_blocks * self.c_in * TILES_PER_BLOCK + PLANE_SKEW

    @property
    def v_size(self) -> int:
        # Safety margin of one vector so the slideup variant's full-width
        # quad loads never run off the end.
        return TUPLE_POSITIONS * self.v_plane + self.vlen_elems

    def v_offset(self, p: int, tb: int, c: int, i: int = 0) -> int:
        return p * self.v_plane + (tb * self.c_in + c) * TILES_PER_BLOCK + i

    # -- transformed filters U[p][c][k] (compact) ---------------------------
    @property
    def u_row(self) -> int:
        """Compact filter row length: one value per output channel."""
        return self.c_out

    @property
    def u_plane(self) -> int:
        """Elements per tuple-position plane of U, including the skew."""
        return self.c_in * self.u_row + PLANE_SKEW

    @property
    def u_size(self) -> int:
        # A trailing vector margin keeps the tuple-mult panel loads
        # (which read a full vl lanes, spilling into the next row's
        # values) in bounds at the end of the tensor.
        return TUPLE_POSITIONS * self.u_plane + self.vlen_elems

    def u_offset(self, p: int, c: int, k: int = 0) -> int:
        return p * self.u_plane + c * self.u_row + k

    # -- tuple products M[p][kp][tb][q][l] ---------------------------------
    @property
    def m_quad_stride(self) -> int:
        return self.k_panel_lanes

    @property
    def m_plane(self) -> int:
        """Elements per tuple-position plane of M, including the skew."""
        return (
            self.k_panels
            * self.tile_blocks
            * (TILES_PER_BLOCK // QUAD)
            * self.k_panel_lanes
            + PLANE_SKEW
        )

    @property
    def m_size(self) -> int:
        return TUPLE_POSITIONS * self.m_plane

    def m_offset(self, p: int, kp: int, tb: int, q: int, lane: int = 0) -> int:
        return p * self.m_plane + (
            (kp * self.tile_blocks + tb) * (TILES_PER_BLOCK // QUAD) + q
        ) * self.k_panel_lanes + lane

    # -- padded output Y[k][yy][xx] ----------------------------------------
    @property
    def yp_h(self) -> int:
        return self.grid.tiles_h * 6

    @property
    def yp_w(self) -> int:
        return self.grid.tiles_w * 6

    @property
    def y_size(self) -> int:
        return self.c_out * self.yp_h * self.yp_w

    def y_offset(self, k: int, yy: int, xx: int) -> int:
        return (k * self.yp_h + yy) * self.yp_w + xx

    # -- scratch (per-tile transform intermediate, [col j][row i][lane]) ---
    @property
    def scratch_size(self) -> int:
        return 8 * 8 * self.vlen_elems

    def scratch_offset(self, j: int, i: int, lane: int = 0) -> int:
        return (j * 8 + i) * self.vlen_elems + lane

    def tile_origin(self, t: int) -> tuple[int, int]:
        """Padded-space (y, x) of tile t's top-left corner."""
        th, tw = divmod(t, self.grid.tiles_w)
        return th * 6, tw * 6


@dataclass(frozen=True)
class GemmGeometry:
    """Blocked VLA GEMM: C[M, N] = A[M, Kd] x B[Kd, N].

    The kernel holds ``mr`` accumulator rows, streams B panels of
    ``vlen_elems`` columns, and broadcasts A scalars (vfmacc.vf) — the
    standard outer-product microkernel shape the authors' prior work
    (IPDPS'23) uses for long-vector GEMM.
    """

    m: int
    kd: int
    n: int
    vlen_elems: int
    mr: int = 8

    def __post_init__(self) -> None:
        if min(self.m, self.kd, self.n) < 1:
            raise ConfigError(f"empty GEMM: {self.m}x{self.kd}x{self.n}")
        if self.mr < 1:
            raise ConfigError("mr must be positive")

    @property
    def n_panels(self) -> int:
        return ceil_div(self.n, self.vlen_elems)

    @property
    def m_blocks(self) -> int:
        return ceil_div(self.m, self.mr)

    @property
    def a_size(self) -> int:
        return self.m * self.kd

    @property
    def b_size(self) -> int:
        return self.kd * self.n

    @property
    def c_size(self) -> int:
        return self.m * self.n

    def a_offset(self, i: int, k: int) -> int:
        return i * self.kd + k

    def b_offset(self, k: int, j: int) -> int:
        return k * self.n + j

    def c_offset(self, i: int, j: int) -> int:
        return i * self.n + j


@dataclass(frozen=True)
class Im2colGeometry:
    """The Darknet im2col unfold for one layer."""

    c_in: int
    h: int
    w: int
    ksize: int
    stride: int
    pad: int

    @property
    def h_out(self) -> int:
        return (self.h + 2 * self.pad - self.ksize) // self.stride + 1

    @property
    def w_out(self) -> int:
        return (self.w + 2 * self.pad - self.ksize) // self.stride + 1

    @property
    def rows(self) -> int:
        return self.c_in * self.ksize * self.ksize

    @property
    def cols(self) -> int:
        return self.h_out * self.w_out

    @property
    def hp(self) -> int:
        """Padded input height (+ksize margin for uniform edge loads)."""
        return self.h + 2 * self.pad + self.ksize

    @property
    def wp(self) -> int:
        return self.w + 2 * self.pad + self.ksize

    @property
    def x_size(self) -> int:
        return self.c_in * self.hp * self.wp

    def x_offset(self, c: int, y: int, x: int) -> int:
        return (c * self.hp + y) * self.wp + x

    @property
    def cols_size(self) -> int:
        return self.rows * self.cols
