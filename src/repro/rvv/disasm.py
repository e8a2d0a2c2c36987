"""Human-readable listings of captured instruction traces.

Vehave's trace output (which the paper's Section 7 workflow inspects)
renders each committed vector instruction with its operands; this
module does the same for captured :class:`~repro.rvv.Tracer` events,
giving the package a debugging surface for kernel work:

    vsetvli         vl=16, sew=32
    vlse32.v        base=0x10c0, stride=1936, vl=16
    vfmacc.vf       vl=16
    ...

Events recorded by current machines carry full operand metadata
(:class:`~repro.rvv.tracer.Operands`), so listings show exact mnemonics
and register numbers; legacy version-1 traces fall back to per-opclass
mnemonics and show only the dynamic behaviour — lengths, addresses,
strides.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ConfigError
from repro.isa import OpClass
from repro.rvv.prims import PRIMS
from repro.rvv.tracer import InstrEvent, Operands, Tracer

def _class_mnemonics() -> dict[OpClass, str]:
    """Each opcode class's default mnemonics, joined (``vf*.vv`` stands
    for the whole ``vf{op}.vv`` family)."""
    names: dict[OpClass, list[str]] = {OpClass.SCALAR: ["(scalar)"]}
    for prim in PRIMS.values():
        if prim.mnemonic is not None:
            names.setdefault(prim.opclass, []).append(prim.mnemonic.format(op="*"))
    return {c: "/".join(dict.fromkeys(ms)) for c, ms in names.items()}


#: Mnemonics per opcode class, for events without operand metadata.
_MNEMONIC = _class_mnemonics()


def _operand_str(ops: Operands) -> str:
    """Assembly-style operand list: destination, sources, index, imm."""
    parts: list[str] = []
    if ops.vd is not None:
        parts.append(f"v{ops.vd}")
    parts.extend(f"v{r}" for r in ops.vs)
    if ops.vidx is not None:
        parts.append(f"v{ops.vidx}")
    if ops.imm is not None:
        parts.append(str(ops.imm))
    if ops.avl is not None:
        parts.append(f"avl={ops.avl}")
    return ", ".join(parts)


def format_event(ev: InstrEvent) -> str:
    """One listing line for a dynamic instruction."""
    if ev.ops is not None:
        mnem = ev.ops.mnemonic
        regs = _operand_str(ev.ops)
        head = f"{mnem:<20} {regs}  " if regs else f"{mnem:<20} "
    else:
        head = f"{_MNEMONIC.get(ev.opclass, ev.opclass.value):<20} "
    if ev.mem is None:
        return f"{head}vl={ev.elems}"
    m = ev.mem
    if m.kind == "unit":
        detail = f"base={m.base:#x}"
    elif m.kind == "strided":
        detail = f"base={m.base:#x}, stride={m.stride}"
    else:
        span = ""
        if m.offsets:
            span = f", offs[0..{len(m.offsets) - 1}]={m.offsets[0]}..{m.offsets[-1]}"
        detail = f"base={m.base:#x}{span}"
    return f"{head}{detail}, vl={ev.elems}"


def disassemble(
    tracer: Tracer,
    start: int = 0,
    count: int | None = None,
) -> Iterator[str]:
    """Yield listing lines for a window of a captured trace.

    Args:
        tracer: a capturing tracer (``capture=True``).
        start: first event index.
        count: number of events (None = to the end).
    """
    if not tracer.capture:
        raise ConfigError("disassemble needs a Tracer(capture=True)")
    if start < 0:
        raise ConfigError(f"start must be non-negative, got {start}")
    end = len(tracer.events) if count is None else min(
        start + count, len(tracer.events)
    )
    for i in range(start, end):
        yield f"{i:>8}: {format_event(tracer.events[i])}"


def listing(tracer: Tracer, start: int = 0, count: int | None = None) -> str:
    """The whole window as one string (convenience for printing)."""
    return "\n".join(disassemble(tracer, start, count))


def summarize_basic_blocks(tracer: Tracer, max_rows: int = 20) -> str:
    """Collapse consecutive runs of identical opcode classes.

    Kernel inner loops show up as long repeated runs; this gives a
    compact structural view of a trace (the first thing one reads when
    a kernel misbehaves).
    """
    if not tracer.capture:
        raise ConfigError("summarize_basic_blocks needs a Tracer(capture=True)")
    runs: list[tuple[OpClass, int]] = []
    for ev in tracer.events:
        if runs and runs[-1][0] is ev.opclass:
            runs[-1] = (ev.opclass, runs[-1][1] + 1)
        else:
            runs.append((ev.opclass, 1))
    rows = [f"{'run':<24}{'count':>8}   ({len(runs)} runs total)"]
    for op, n in runs[:max_rows]:
        rows.append(f"{_MNEMONIC.get(op, op.value):<24}{n:>8}")
    if len(runs) > max_rows:
        rows.append(f"... {len(runs) - max_rows} more runs")
    return "\n".join(rows)
