"""VLA im2col kernel — Darknet's input unfolding, vectorized.

Each row of the column matrix corresponds to one (channel, filter-row,
filter-column) triple; filling it copies one shifted/strided view of
the input plane.  Stride-1 layers copy with unit-stride loads; strided
layers use strided loads (element stride = ``stride * 4`` bytes), one
output row at a time, strip-mined over the output width.

The loop nest is the schedule DSL's lowering of the copy statement
(:mod:`repro.schedule`), pinned by
``tests/data/golden_schedule_im2col_default.json``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernels.buffers import Im2colBuffers
from repro.kernels.common import Im2colGeometry
from repro.rvv.machine import VectorEngine

if TYPE_CHECKING:
    from repro.schedule.ir import Schedule


def im2col_kernel(
    machine: VectorEngine,
    geom: Im2colGeometry,
    bufs: Im2colBuffers,
    sched: Schedule | None = None,
) -> None:
    """Unfold the padded input into the Darknet column matrix.

    ``sched`` defaults to :func:`repro.schedule.default_copy_schedule`,
    whose loop structure
    :func:`repro.model.gemm_model.im2col_model_for` mirrors exactly:

    for each row (c, ki, kj) of the column matrix:
      for each output row oy:
        strip-mine output columns: vsetvl, (unit or strided) load,
        unit store
    """
    # Imported at call time: repro.schedule imports this package's
    # geometry, so a module-level import would be circular.
    from repro.schedule import (
        CopyAlgorithm,
        CopyOperands,
        default_copy_schedule,
        lower_copy,
    )

    lower_copy(machine, CopyAlgorithm(geom),
               sched if sched is not None else default_copy_schedule(),
               CopyOperands(src=bufs.x, dst=bufs.cols))
