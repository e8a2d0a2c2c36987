"""ISA-level definitions shared by the functional and timing simulators.

This package holds everything that is a property of the *instruction set*
rather than of a particular machine implementation:

- :mod:`repro.isa.encoding` — SEW/LMUL/`vtype` encoding and the
  ``vsetvl`` vector-length computation of RVV 1.0.
- :mod:`repro.isa.opcodes` — the opcode classification used for
  instruction accounting by the tracer and the timing model.
"""

from repro.isa.encoding import (
    SEW_BITS,
    VLEN_CHOICES,
    VType,
    vlmax,
    vsetvl,
)
from repro.isa.opcodes import (
    FLOPS_PER_ELEM,
    IS_LOAD,
    IS_MEM,
    IS_STORE,
    IS_VECTOR,
    MEM_KIND,
    OpClass,
)

__all__ = [
    "SEW_BITS",
    "VLEN_CHOICES",
    "VType",
    "vlmax",
    "vsetvl",
    "OpClass",
    "IS_MEM",
    "IS_LOAD",
    "IS_STORE",
    "IS_VECTOR",
    "MEM_KIND",
    "FLOPS_PER_ELEM",
]
