"""The paper's vectorized kernels, single-source across RVV and SVE.

- :mod:`repro.kernels.transforms` — Winograd input/filter/output
  transforms (channel-vectorized, inter-tile parallelism);
- :mod:`repro.kernels.tuple_mult` — tuple multiplication, Algorithm 1
  (indexed) and Algorithm 2 (slideup) variants;
- :mod:`repro.kernels.transpose` — the 4-vector transpose workarounds,
  Algorithm 3 (indexed) and Algorithm 4 (strided);
- :mod:`repro.kernels.im2col` / :mod:`repro.kernels.gemm` — the
  im2col+GEMM path, and :mod:`repro.kernels.direct` — the direct 1x1
  convolution; all three are emitted by the schedule DSL's lowering
  (:mod:`repro.schedule`) under its default schedules;
- :mod:`repro.kernels.drivers` — end-to-end convolution drivers;
- :mod:`repro.kernels.common` — geometry/layout shared with the
  analytical models (the trace-validation contract).
"""

from repro.kernels.buffers import (
    Direct1x1Buffers,
    GemmBuffers,
    Im2colBuffers,
    WinogradBuffers,
)
from repro.kernels.common import (
    Direct1x1Geometry,
    GemmGeometry,
    Im2colGeometry,
    TransformOp,
    WinogradGeometry,
    transform_op_class_counts,
    transform_ops,
)
from repro.kernels.direct import direct1x1_kernel, direct_conv1x1_sim
from repro.kernels.drivers import im2col_gemm_conv2d_sim, winograd_conv2d_sim
from repro.kernels.gemm import gemm_kernel
from repro.kernels.im2col import im2col_kernel
from repro.kernels.streaming import axpy_kernel, dot_kernel, memcpy_kernel
from repro.kernels.transforms import (
    exec_transform,
    filter_transform,
    input_transform,
    output_transform,
)
from repro.kernels.transpose import (
    interleave4_reference,
    transpose4_indexed,
    transpose4_native,
    transpose4_strided,
)
from repro.kernels.tuple_mult import (
    FILTER_STATIONARY,
    INDEXED,
    LOOP_ORDERS,
    NATIVE,
    SLIDEUP,
    SLIDEUP_LOG,
    TILE_STATIONARY,
    VARIANTS,
    quad_index_pattern,
    slide_amounts,
    tuple_multiplication,
)

__all__ = [
    "WinogradGeometry",
    "GemmGeometry",
    "Im2colGeometry",
    "WinogradBuffers",
    "GemmBuffers",
    "Im2colBuffers",
    "transform_ops",
    "transform_op_class_counts",
    "TransformOp",
    "exec_transform",
    "input_transform",
    "filter_transform",
    "output_transform",
    "tuple_multiplication",
    "INDEXED",
    "NATIVE",
    "SLIDEUP",
    "SLIDEUP_LOG",
    "VARIANTS",
    "FILTER_STATIONARY",
    "TILE_STATIONARY",
    "LOOP_ORDERS",
    "quad_index_pattern",
    "slide_amounts",
    "transpose4_indexed",
    "transpose4_strided",
    "transpose4_native",
    "interleave4_reference",
    "gemm_kernel",
    "im2col_kernel",
    "winograd_conv2d_sim",
    "im2col_gemm_conv2d_sim",
    "Direct1x1Geometry",
    "Direct1x1Buffers",
    "direct1x1_kernel",
    "direct_conv1x1_sim",
    "memcpy_kernel",
    "axpy_kernel",
    "dot_kernel",
]
