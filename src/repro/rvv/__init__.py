"""Functional RISC-V Vector v1.0 simulator (the reproduction's "Spike").

Public surface:

- :class:`RvvMachine` — executes RVV 1.0 / EPI-style intrinsics with full
  architectural semantics over a simulated flat memory.
- :class:`Memory` — byte-addressed memory with a bump allocator.
- :class:`Tracer` / :class:`MemAccess` / :class:`InstrEvent` — the one
  signature-interned instruction trace (accounting and address-stream
  capture) that every machine retires into; the primitives it records
  are declared once in :mod:`repro.rvv.prims`.
- :class:`RegAlloc` / :class:`VRegFile` — the 32-entry architectural
  vector register file and a spill-detecting allocator.
"""

from repro.rvv.machine import RvvMachine, VectorEngine
from repro.rvv.proposed import RvvPlusMachine, has_proposed_extensions
from repro.rvv.memory import LINE_BYTES, Memory
from repro.rvv.registers import NUM_VREGS, RegAlloc, VRegFile
from repro.rvv.disasm import disassemble, format_event, listing, summarize_basic_blocks
from repro.rvv.trace_io import load_trace, save_trace
from repro.rvv.tracer import InstrEvent, MemAccess, OpStats, Tracer, assert_counts_match

__all__ = [
    "RvvMachine",
    "RvvPlusMachine",
    "has_proposed_extensions",
    "VectorEngine",
    "Memory",
    "LINE_BYTES",
    "Tracer",
    "MemAccess",
    "InstrEvent",
    "OpStats",
    "assert_counts_match",
    "save_trace",
    "load_trace",
    "disassemble",
    "listing",
    "format_event",
    "summarize_basic_blocks",
    "RegAlloc",
    "VRegFile",
    "NUM_VREGS",
]
