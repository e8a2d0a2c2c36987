"""Vectorized direct convolution for 1x1 kernels.

The paper's Section 2 notes that direct convolution "is mainly used for
1x1 kernel size" (citing recent SIMD/long-vector direct-convolution
work), yet its own evaluation routes 1x1 layers through im2col+GEMM —
where the im2col step degenerates to copying the input into the column
matrix.  This kernel skips that copy: a 1x1 convolution is a GEMM whose
B matrix *is* the input feature map, so the microkernel streams the
input planes directly:

    Y[k, :] = sum_c W[k, c] * X[c, ::stride]

Same accumulator structure as :mod:`repro.kernels.gemm` (``mr`` output
channels per pass, ``vl`` pixels per vector) and the same source: the
schedule DSL's matmul lowering, pinned by
``tests/data/golden_schedule_direct1x1_*.json``.  Stride-2 layers use
strided loads.  The ablation bench ``bench_ablation_direct_1x1.py``
quantifies the saved traffic against the paper's im2col+GEMM choice on
YOLOv3's six 1x1 layers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError
from repro.kernels.buffers import Direct1x1Buffers
from repro.kernels.common import Direct1x1Geometry
from repro.rvv.machine import VectorEngine

if TYPE_CHECKING:
    from repro.schedule.ir import Schedule


def direct1x1_kernel(
    machine: VectorEngine,
    geom: Direct1x1Geometry,
    bufs: Direct1x1Buffers,
    sched: Schedule | None = None,
) -> None:
    """Direct 1x1 convolution over CHW feature maps.

    ``sched`` defaults to :func:`repro.schedule.default_direct_schedule`,
    whose loop structure :func:`repro.model.direct_model.direct1x1_model`
    mirrors exactly.  The pixel strip is *outermost* so the just-loaded
    input strip is re-read across the output-channel blocks at a tiny
    reuse distance (C x strip bytes).  Stride-1 layers strip-mine the
    whole contiguous plane; strided layers lower one matmul per output
    row, because their pixels are contiguous only within a row:

    for each pixel strip (whole plane at stride 1, per row otherwise):
      vsetvl
      for each output-channel block (mr channels):
        mr x accumulator init
        for c in input channels:
          1x (unit | strided) load of the input strip
          mr x (scalar weight load + vfmacc.vf)
        mr x unit store
    """
    # Imported at call time: repro.schedule imports this package's
    # geometry, so a module-level import would be circular.
    from repro.schedule import (
        MatmulAlgorithm,
        MatmulOperands,
        default_direct_schedule,
        lower_matmul,
    )

    alg = MatmulAlgorithm.from_direct1x1(geom)
    if sched is None:
        sched = default_direct_schedule(geom.mr)
    s = geom.stride
    for oy in range(geom.h_out if s > 1 else 1):
        lower_matmul(machine, alg, sched, MatmulOperands(
            a=bufs.weights,
            b=bufs.x + 4 * oy * s * geom.w,
            c=bufs.y + 4 * oy * geom.w_out))


def direct_conv1x1_sim(
    machine: VectorEngine,
    x: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
) -> np.ndarray:
    """End-to-end driver: run a 1x1 convolution on the vector machine."""
    if weights.ndim != 4 or weights.shape[2:] != (1, 1):
        raise ConfigError("direct_conv1x1_sim expects (K, C, 1, 1) filters")
    c, h, w = x.shape
    k = weights.shape[0]
    if weights.shape[1] != c:
        raise ConfigError(f"channel mismatch: {c} vs {weights.shape[1]}")
    geom = Direct1x1Geometry(
        c_in=c, h=h, w=w, c_out=k, stride=stride,
        vlen_elems=machine.vlen_bits // 32,
    )
    bufs = Direct1x1Buffers.allocate(machine, geom)
    machine.memory.write_f32(bufs.x, np.ascontiguousarray(x, dtype=np.float32))
    machine.memory.write_f32(
        bufs.weights, np.ascontiguousarray(weights, dtype=np.float32).reshape(k, c)
    )
    direct1x1_kernel(machine, geom, bufs)
    return (
        machine.memory.read_f32(bufs.y, geom.y_size)
        .reshape(k, geom.h_out, geom.w_out)
        .copy()
    )
