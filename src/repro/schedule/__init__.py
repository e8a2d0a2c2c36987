"""Kernel-generation DSL: algorithms, schedules, lowering and search.

Exo-style separation of concerns for the repo's convolution kernels: a
statement (:mod:`repro.schedule.algorithms`) says *what* is computed,
a :class:`Schedule` (:mod:`repro.schedule.ir`) says *how* its loop
nest is tiled/ordered/vectorized/unrolled, and the lowering
(:mod:`repro.schedule.lower`) emits the RVV/SVE driver program.  This
is the only source of the GEMM, im2col and direct 1x1 kernels:
:func:`repro.kernels.gemm_kernel`, :func:`repro.kernels.im2col_kernel`
and :func:`repro.kernels.direct1x1_kernel` lower the default schedules
unless given another, and ``tests/data/golden_schedule_*.json`` pin
their listings.

``repro tune`` searches this space per layer
(:mod:`repro.schedule.space`, :mod:`repro.codesign.tuner`).
"""

from repro.errors import ScheduleError
from repro.schedule.algorithms import (
    CopyAlgorithm,
    CopyOperands,
    MatmulAlgorithm,
    MatmulOperands,
)
from repro.schedule.cost import SurrogateCost, copy_surrogate, matmul_surrogate
from repro.schedule.ir import (
    VL,
    Schedule,
    copy_schedule,
    default_copy_schedule,
    default_direct_schedule,
    default_matmul_schedule,
    matmul_schedule,
)
from repro.schedule.lower import lower_copy, lower_matmul
from repro.schedule.space import copy_space, matmul_space, sample_space

__all__ = [
    "Schedule",
    "ScheduleError",
    "VL",
    "matmul_schedule",
    "copy_schedule",
    "default_matmul_schedule",
    "default_direct_schedule",
    "default_copy_schedule",
    "MatmulAlgorithm",
    "MatmulOperands",
    "CopyAlgorithm",
    "CopyOperands",
    "lower_matmul",
    "lower_copy",
    "matmul_space",
    "copy_space",
    "sample_space",
    "matmul_surrogate",
    "copy_surrogate",
    "SurrogateCost",
]
