"""The lifted instruction IR the analysis passes run over.

A captured :class:`~repro.rvv.tracer.Tracer` interns every retired
instruction's signature, and each signature already knows the vsetvl/
whilelt configuration it retired under.  :func:`lift` lays the trace
out as a :class:`LiftedProgram` in which every instruction carries that
configuration — exactly the state the spec-conformance passes need.
The abstract machines of :mod:`repro.analysis.symbolic` record the same
trace type, so the same function lifts their parametric programs.

The IR is deliberately trace-shaped rather than CFG-shaped: the
machines execute straight-line dynamic instruction streams (loops are
already unrolled by execution), so dataflow analyses over the lifted
program are exact, not conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.isa import IS_MEM, OpClass
from repro.rvv.disasm import format_event
from repro.rvv.memory import Extent
from repro.rvv.tracer import InstrEvent, MemAccess, Operands, Tracer


@dataclass(frozen=True)
class LiftedInstr:
    """One dynamic instruction plus the vector state it retired under.

    ``vl``/``sew``/``cfg_lmul`` are the values granted by the most
    recent configuration instruction (vsetvli or whilelt), or None when
    no configuration had executed yet.  For the configuration
    instruction itself they are the newly-established values.
    """

    index: int
    event: InstrEvent
    vl: int | None
    sew: int | None
    cfg_lmul: int | None

    @property
    def opclass(self) -> OpClass:
        return self.event.opclass

    @property
    def ops(self) -> Operands | None:
        return self.event.ops

    @property
    def mem(self) -> MemAccess | None:
        return self.event.mem

    @property
    def lmul(self) -> int:
        return self.event.lmul

    @property
    def is_config(self) -> bool:
        """True for instructions that establish the vector configuration."""
        if self.opclass is OpClass.VSETVL:
            return True
        return (self.opclass is OpClass.VMASK and self.ops is not None
                and self.ops.avl is not None)

    @property
    def is_vector(self) -> bool:
        return self.opclass is not OpClass.SCALAR

    def disasm(self) -> str:
        """The listing line for this instruction (pass evidence)."""
        return format_event(self.event)


@dataclass(frozen=True)
class LiftedProgram:
    """A lifted kernel execution: instructions + the memory it declared.

    ``vlen_bits`` is the hardware vector length of the machine that
    produced the trace (None for loaded traces of unknown origin) and
    ``extents`` the labeled allocations of its memory — the ground truth
    the memory-safety pass proves accesses against.
    """

    instrs: tuple[LiftedInstr, ...]
    vlen_bits: int | None = None
    extents: tuple[Extent, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.instrs)

    def __iter__(self) -> Iterator[LiftedInstr]:
        return iter(self.instrs)

    def __getitem__(self, i: int) -> LiftedInstr:
        return self.instrs[i]

    def vector_instrs(self) -> tuple[LiftedInstr, ...]:
        return tuple(i for i in self.instrs if i.is_vector)

    def mem_instrs(self) -> tuple[LiftedInstr, ...]:
        return tuple(i for i in self.instrs if i.opclass in IS_MEM)


def lift(
    tracer: Tracer,
    vlen_bits: int | None = None,
    extents: tuple[Extent, ...] = (),
) -> LiftedProgram:
    """Lift a captured trace into an analyzable program.

    Raises:
        ValueError: if the tracer was not capturing (a counts-only
            tracer has no event stream to lift).
    """
    if not tracer.capture:
        raise ValueError("lift needs a Tracer(capture=True)")
    sigs = tracer.sigs
    instrs = tuple(
        LiftedInstr(i, ev, s.vl, s.sew, s.cfg_lmul)
        for i, (ev, s) in enumerate(zip(tracer.events,
                                        map(sigs.__getitem__, tracer.sig_ids))))
    return LiftedProgram(instrs, vlen_bits, tuple(extents))
