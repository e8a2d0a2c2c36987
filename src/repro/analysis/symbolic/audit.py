"""The execution-free static audit behind ``repro lint-kernels --static``.

:func:`interpret_kernel` runs a registered kernel harness against an
abstract machine (:mod:`.machine`) with VLEN symbolic over the full
admissible domain :data:`repro.isa.VLEN_CHOICES`.  One interpretation
covers a *regime* — the maximal set of VLENs whose dynamic instruction
stream is structurally identical to the chosen witness's — so the
driver re-runs with fresh witnesses (largest uncovered VLEN first)
until the domain is exhausted.  VLENs the kernel rejects by
construction (``ConfigError`` from a geometry check, say) are recorded
as *unsupported* rather than flagged: refusing to run is a legitimate
static verdict.

:func:`audit_kernel_static` then runs the pass pipeline over each
regime directly on its compact trace — the register-shaped passes
folded per signature (:mod:`.fold`), memory safety and VLA through
their symbolic variants (:mod:`.passes`) — producing the same
:class:`~repro.analysis.findings.KernelAuditReport` the trace-lifted
audit produces, with zero kernel executions and a verdict that covers
**all** VLENs, not the sampled ones.  The parametric
:class:`~repro.analysis.ir.LiftedProgram` is materialized lazily
(:attr:`Regime.program`), only for consumers that genuinely walk
instructions — the performance lints and the equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from repro.analysis.audit import KernelSpec
from repro.analysis.findings import Finding, KernelAuditReport, dedupe_findings
from repro.analysis.ir import LiftedProgram, lift
from repro.analysis.pipeline import PASS_IDS, PERF_PASS_IDS, analyze_perf
from repro.errors import ConfigError, ReproError
from repro.isa import VLEN_CHOICES
from repro.rvv.memory import Extent
from repro.rvv.tracer import Tracer

from .core import SymContext
from .fold import analyze_strace
from .machine import ABSTRACT_FLAVORS
from .passes import check_memsafety, check_vla

__all__ = [
    "Regime",
    "SymbolicKernelAudit",
    "interpret_kernel",
    "audit_kernel_static",
    "audit_kernels_static",
]


@dataclass
class Regime:
    """One abstract interpretation: a parametric trace and its domain.

    ``vlens`` are the VLENs proven structurally identical; ``ctx`` is
    the (sealed) context whose active points cover those VLENs;
    ``strace`` the symbolic trace the interpretation recorded (the same
    :class:`~repro.rvv.tracer.Tracer` type a concrete capture run
    fills, with SymInt values where VLEN matters) and ``extents`` the abstract memory's declared buffer extents.
    ``program`` materializes the full parametric lifted program on
    first use (and caches it).
    """

    vlens: tuple[int, ...]
    ctx: SymContext
    strace: Tracer
    extents: tuple[Extent, ...]

    @cached_property
    def program(self) -> LiftedProgram:
        return lift(self.strace, extents=self.extents)

    def point_index(self, vlen: int) -> int:
        return self.ctx.points.index((vlen,))

    def point_indices(self) -> tuple[int, ...]:
        return tuple(self.point_index(v) for v in self.vlens)


@dataclass
class SymbolicKernelAudit:
    """Everything one symbolic sweep of a kernel established."""

    kernel: str
    machine: str
    domain: tuple[int, ...]
    regimes: list[Regime] = field(default_factory=list)
    unsupported: dict[int, str] = field(default_factory=dict)

    @property
    def supported_vlens(self) -> tuple[int, ...]:
        return tuple(sorted(v for rg in self.regimes for v in rg.vlens))

    def regime_of(self, vlen: int) -> Regime:
        for rg in self.regimes:
            if vlen in rg.vlens:
                return rg
        raise ConfigError(
            f"VLEN {vlen} not covered by any regime of {self.kernel!r} "
            f"({self.unsupported.get(vlen, 'not in the audited domain')})")


def interpret_kernel(
    spec: KernelSpec,
    flavor: str,
    vlens: tuple[int, ...] = VLEN_CHOICES,
) -> SymbolicKernelAudit:
    """Abstract-interpret one kernel until the VLEN domain is covered."""
    if flavor not in ABSTRACT_FLAVORS:
        raise ConfigError(f"unknown machine flavor {flavor!r}")
    audit = SymbolicKernelAudit(spec.name, flavor, tuple(sorted(vlens)))
    remaining = set(vlens)
    while remaining:
        witness = max(remaining)
        ctx = SymContext.for_vlens(audit.domain, witness)
        machine = ABSTRACT_FLAVORS[flavor](ctx)
        try:
            spec.run(machine)  # type: ignore[arg-type]
        except ReproError as exc:
            ctx.seal()
            covered = _covered(ctx, remaining)
            reason = f"{type(exc).__name__}: {exc}"
            for v in covered:
                audit.unsupported[v] = reason
            remaining -= set(covered)
            continue
        ctx.seal()
        covered = _covered(ctx, remaining)
        audit.regimes.append(Regime(
            covered, ctx, machine.tracer,
            tuple(machine.memory.allocations)))
        remaining -= set(covered)
    audit.regimes.sort(key=lambda rg: rg.vlens[0])
    return audit


def _covered(ctx: SymContext, remaining: set[int]) -> tuple[int, ...]:
    """Newly-covered VLENs: the active points still awaiting a regime."""
    active_vlens = {ctx.points[i][0] for i in ctx.active}
    return tuple(sorted(active_vlens & remaining))


def audit_kernel_static(
    spec: KernelSpec,
    flavor: str = "rvv",
    vlens: tuple[int, ...] = VLEN_CHOICES,
    perf: bool = False,
) -> KernelAuditReport:
    """Statically audit one kernel variant over the whole VLEN domain."""
    audit = interpret_kernel(spec, flavor, vlens)
    findings: list[Finding] = []
    perf_findings: list[Finding] = []
    for rg in audit.regimes:
        # Register-shaped passes fold over the compact trace; memory
        # safety needs the domain made explicit.
        findings.extend(analyze_strace(rg))
        findings.extend(check_memsafety(rg))
        if perf:
            perf_findings.extend(analyze_perf(rg.program))
    findings.extend(check_vla(audit.regimes, fixed_work=spec.fixed_work))
    instr_counts = {v: len(rg.strace)
                    for rg in audit.regimes for v in rg.vlens}
    return KernelAuditReport(
        kernel=spec.name,
        machine=flavor,
        vlens=audit.supported_vlens,
        findings=dedupe_findings(findings),
        instr_counts=instr_counts,
        passes_run=PASS_IDS + (PERF_PASS_IDS if perf else ()),
        mode="static",
        regimes=tuple(rg.vlens for rg in audit.regimes),
        unsupported=dict(audit.unsupported),
        perf=dedupe_findings(perf_findings),
    )


def audit_kernels_static(
    specs: Iterable[KernelSpec] | None = None,
    vlens: tuple[int, ...] = VLEN_CHOICES,
    perf: bool = False,
) -> list[KernelAuditReport]:
    """Statically audit specs (default: the registry) on all machines."""
    from repro.analysis.audit import KERNEL_SPECS

    reports = []
    for spec in (KERNEL_SPECS if specs is None else specs):
        for flavor in spec.machines:
            reports.append(audit_kernel_static(spec, flavor, vlens, perf))
    return reports
