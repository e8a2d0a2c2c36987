"""Algorithm statements the schedule DSL can lower.

An algorithm describes *what* is computed — extents and row-major
address arithmetic over flat fp32 operand buffers — and nothing about
loop structure.  Two statements are the only source of the GEMM,
im2col and direct 1x1 kernels in :mod:`repro.kernels`:

- :class:`MatmulAlgorithm` is the GEMM statement.  With
  :meth:`MatmulAlgorithm.from_gemm` it addresses the column matrix the
  im2col stage produced; with :meth:`MatmulAlgorithm.from_direct1x1`
  its B matrix *is* the input feature map (the direct 1x1 convolution
  of :mod:`repro.kernels.direct`).
- :class:`CopyAlgorithm` is the im2col unfolding statement.

Addresses are element offsets; the lowering multiplies by 4 (fp32).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.kernels.common import (
    Direct1x1Geometry,
    GemmGeometry,
    Im2colGeometry,
)


@dataclass(frozen=True)
class MatmulAlgorithm:
    """C[i, j] += A[i, k] * B[k, j] over row-major operands.

    ``b_elem_stride`` is the element distance between consecutive
    ``j`` in B (1 -> unit-stride loads, otherwise strided loads); the
    A operand is read by the scalar unit (one broadcast per FMA), so
    only its extent matters for the memory view.
    """

    name: str
    m: int
    n: int
    kd: int
    a_row_stride: int
    b_row_stride: int
    c_row_stride: int
    b_elem_stride: int = 1
    a_elems: int = 0

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.kd) < 1:
            raise ConfigError(f"bad matmul extents: {self}")
        if self.b_elem_stride < 1:
            raise ConfigError(f"bad B element stride: {self.b_elem_stride}")
        if self.a_elems == 0:
            object.__setattr__(self, "a_elems",
                               (self.m - 1) * self.a_row_stride + self.kd)

    # -- element offsets -------------------------------------------------
    def a_off(self, i: int, k: int) -> int:
        return i * self.a_row_stride + k

    def b_off(self, k: int, j: int) -> int:
        return k * self.b_row_stride + j * self.b_elem_stride

    def c_off(self, i: int, j: int) -> int:
        return i * self.c_row_stride + j

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_gemm(cls, geom: GemmGeometry) -> "MatmulAlgorithm":
        """The GEMM statement of the im2col-GEMM path."""
        return cls(name="gemm", m=geom.m, n=geom.n, kd=geom.kd,
                   a_row_stride=geom.kd, b_row_stride=geom.n,
                   c_row_stride=geom.n, a_elems=geom.a_size)

    @classmethod
    def from_direct1x1(cls, geom: Direct1x1Geometry) -> "MatmulAlgorithm":
        """The direct 1x1 convolution as a matmul whose B is the input.

        At stride 1 the pixel axis is the whole contiguous plane and
        one statement covers the layer.  At stride ``s > 1`` the pixels
        are contiguous only within an output row, so the statement
        covers one row (``n = w_out``, B read with element stride
        ``s``); the kernel lowers it once per output row, with the B
        and C operands offset to that row.
        """
        s = geom.stride
        n = geom.h * geom.w if s == 1 else geom.w_out
        return cls(name="direct1x1", m=geom.c_out, n=n, kd=geom.c_in,
                   a_row_stride=geom.c_in, b_row_stride=geom.h * geom.w,
                   c_row_stride=geom.n_pixels, b_elem_stride=s,
                   a_elems=geom.w_size)


@dataclass(frozen=True)
class MatmulOperands:
    """Byte base addresses of the matmul operand buffers."""

    a: int
    b: int
    c: int


@dataclass(frozen=True)
class CopyAlgorithm:
    """The im2col unfolding statement over one layer geometry.

    dst[r, y, x] = src[c, y*s + ki, x*s + kj] for the (c, ki, kj)
    triple encoded by column-matrix row ``r``; ``src`` is the padded
    input plane the :class:`~repro.kernels.buffers.Im2colBuffers`
    staging wrote.
    """

    geom: Im2colGeometry

    @property
    def rows(self) -> int:
        return self.geom.rows

    @property
    def h_out(self) -> int:
        return self.geom.h_out

    @property
    def w_out(self) -> int:
        return self.geom.w_out

    @property
    def stride(self) -> int:
        return self.geom.stride

    def decode_row(self, r: int) -> tuple[int, int, int]:
        """Column-matrix row -> (channel, filter row, filter column)."""
        ks = self.geom.ksize
        return r // (ks * ks), (r // ks) % ks, r % ks

    def src_off(self, r: int, y: int, x0: int) -> int:
        c, ki, kj = self.decode_row(r)
        s = self.geom.stride
        return self.geom.x_offset(c, y * s + ki, x0 * s + kj)

    def dst_off(self, r: int, y: int, x0: int) -> int:
        return r * self.geom.cols + y * self.w_out + x0


@dataclass(frozen=True)
class CopyOperands:
    """Byte base addresses of the copy statement's buffers."""

    src: int
    dst: int
