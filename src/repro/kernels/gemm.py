"""VLA GEMM kernel — the workhorse of the im2col+GEMM convolution path.

The vector-length-agnostic outer-product microkernel from the authors'
prior work (IPDPS'23), as used by Darknet's convolution when Winograd
does not apply: accumulators hold ``mr`` rows of a ``vl``-column C
panel; per reduction step the kernel unit-loads one B row panel and
broadcasts ``mr`` scalars of A with ``vfmacc.vf``.

The B panel is re-streamed for every M block — a reuse distance of
``Kd * vl * 4`` bytes that grows with the vector length.  This is the
mechanism behind the paper's Table 1: YOLOv3's (GEMM-heavy) L2 miss
rate rises from 39% to 52% as VLEN grows from 512 to 4096 bits, and
behind its L2-size scaling (bigger L2 re-captures the B panel).

The loop nest is not written here: it is the schedule DSL's lowering
of the matmul statement (:mod:`repro.schedule`), pinned by
``tests/data/golden_schedule_gemm_default.json``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernels.buffers import GemmBuffers
from repro.kernels.common import GemmGeometry
from repro.rvv.machine import VectorEngine

if TYPE_CHECKING:
    from repro.schedule.ir import Schedule


def gemm_kernel(
    machine: VectorEngine,
    geom: GemmGeometry,
    bufs: GemmBuffers,
    sched: Schedule | None = None,
) -> None:
    """C = A @ B with the blocked VLA microkernel.

    ``sched`` defaults to :func:`repro.schedule.default_matmul_schedule`;
    :func:`repro.model.gemm_model.gemm_model` counts any schedule's
    instructions exactly.  The default loop structure:

    for each N panel (vl = columns in panel):
      for each M block (mr rows):
        vsetvl; mr x accumulator init
        for k in reduction dim:
          1x unit load of B[k, panel]
          mr x (scalar A load + vfmacc.vf)
        mr x unit store of C rows
    """
    # Imported at call time: repro.schedule imports this package's
    # geometry, so a module-level import would be circular.
    from repro.schedule import (
        MatmulAlgorithm,
        MatmulOperands,
        default_matmul_schedule,
        lower_matmul,
    )

    lower_matmul(machine, MatmulAlgorithm.from_gemm(geom),
                 sched if sched is not None
                 else default_matmul_schedule(geom.mr),
                 MatmulOperands(a=bufs.a, b=bufs.b, c=bufs.c))
