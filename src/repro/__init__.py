"""repro — reproduction of "Challenges and Opportunities in the Co-design
of Convolutions and RISC-V Vector Processors" (Gupta, Papadopoulou,
Pericàs; SC-W 2023).

The package rebuilds the paper's entire experimental stack in Python:

- :mod:`repro.rvv` / :mod:`repro.sve` — functional RVV 1.0 and ARM-SVE
  vector machines (the "Spike" role);
- :mod:`repro.sim` — an in-order-core timing model with a cache
  hierarchy (the "gem5 RiscvMinorCPU" role);
- :mod:`repro.winograd` — Cook-Toom transform generation and the
  NNPACK-style F(6x6, 3x3) formulation;
- :mod:`repro.conv` — reference convolution algorithms (direct,
  im2col+GEMM, Winograd) and the hybrid selection policy;
- :mod:`repro.kernels` — the paper's vectorized kernels (transforms,
  tuple multiplication with indexed vs slideup variants, transpose
  variants, im2col, GEMM), single-source across both ISAs;
- :mod:`repro.model` — analytical instruction-stream generators that
  scale the kernels to full network layers;
- :mod:`repro.nets` — VGG16 and YOLOv3 layer geometry (Darknet cfg);
- :mod:`repro.roofline` / :mod:`repro.codesign` — the paper's roofline
  analysis and vector-length x L2-size co-design study.
"""

from repro.errors import (
    AlignmentError,
    AllocationError,
    ConfigError,
    IllegalInstructionError,
    MemoryError_,
    RegisterSpillError,
    ReproError,
    TraceValidationError,
    VectorStateError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "ConfigError",
    "MemoryError_",
    "AllocationError",
    "AlignmentError",
    "VectorStateError",
    "RegisterSpillError",
    "IllegalInstructionError",
    "TraceValidationError",
]
