"""VLEN-parametric abstract interpretation of the kernel registry.

The symbolic analyzer proves, without executing a single kernel
element, what the trace-lifted audit samples: it runs kernel drivers
against data-free abstract machines whose VLEN is symbolic over the
full admissible domain, lifts the resulting *parametric* programs, and
feeds them through the pass pipeline plus a static cost model that
reconciles bit-exactly against concrete traces.

Layering:

- :mod:`.affine` — the exact affine algebra closed forms live in
- :mod:`.core` — finite-domain relational integers (SymInt/SymContext)
- :mod:`.machine` — abstract RVV/RVV+/SVE machines, recording into the
  same signature-interned :class:`~repro.rvv.tracer.Tracer` as the
  concrete machines
- :mod:`.fold` — register-shaped passes folded per signature
- :mod:`.passes` — symbolic memory-safety and VLA passes
- :mod:`.audit` — the regime-splitting driver and static audit
- :mod:`.cost` — the reconciled static cost model
"""

from .affine import AffineExpr, NonAffineError, fit_affine
from .audit import (
    Regime,
    SymbolicKernelAudit,
    audit_kernel_static,
    audit_kernels_static,
    interpret_kernel,
)
from .core import SymbolicError, SymContext, SymInt
from .fold import analyze_strace
from .cost import (
    METRICS,
    RECONCILE_VLENS,
    CostForm,
    StaticCostModel,
    build_cost_model,
    cost_model_for,
    reconcile,
)
from .machine import (
    ABSTRACT_FLAVORS,
    AbstractMemory,
    AbstractRvvMachine,
    AbstractRvvPlusMachine,
    AbstractSveMachine,
    SymMemAccess,
)

__all__ = [
    "ABSTRACT_FLAVORS",
    "METRICS",
    "RECONCILE_VLENS",
    "AbstractMemory",
    "AbstractRvvMachine",
    "AbstractRvvPlusMachine",
    "AbstractSveMachine",
    "AffineExpr",
    "CostForm",
    "NonAffineError",
    "Regime",
    "StaticCostModel",
    "SymContext",
    "SymInt",
    "SymMemAccess",
    "SymbolicError",
    "SymbolicKernelAudit",
    "analyze_strace",
    "audit_kernel_static",
    "audit_kernels_static",
    "build_cost_model",
    "cost_model_for",
    "fit_affine",
    "interpret_kernel",
    "reconcile",
]
