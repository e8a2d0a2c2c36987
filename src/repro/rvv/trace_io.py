"""Trace export/import — the Vehave/MUSA workflow, reproduced.

The paper's Section 7 describes the BSC toolchain where Vehave records
execution traces of vectorized binaries that the MUSA simulator then
replays for performance exploration.  This module provides the same
decoupling for this package: :func:`save_trace` serializes a captured
:class:`~repro.rvv.Tracer` to a compact JSON-lines file and
:func:`load_trace` reconstructs a tracer that
:meth:`repro.sim.Simulator.run_trace` can replay — so a functional run
(possibly slow) can be recorded once and re-simulated under many
configurations, or shipped to another machine.

Format: one JSON object per line.
- header: ``{"repro_trace": 2}``
- events: ``{"o": opclass, "e": elems, "w": eew}`` plus, for memory
  events, ``{"k": kind, "b": base, "s": stride, "x": [offsets...],
  "l": is_load, "q": seq, "ms": sew, "ml": lmul}`` (offsets only for
  indexed accesses), plus ``{"m": lmul}`` when LMUL differs from 1 and
  ``{"op": {"mn", "vd", "vs", "vi", "im", "mg", "a"}}`` operand
  metadata when the recording machine attached any.

Version 1 files (no sequence/vtype/operand metadata) still load; their
events simply carry ``ops=None``, which the analysis passes treat as
"metadata unavailable".
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import ConfigError
from repro.isa import IS_LOAD, IS_MEM, MEM_KIND, OpClass
from repro.isa.encoding import LMUL_CHOICES
from repro.rvv.registers import NUM_VREGS
from repro.rvv.tracer import MemAccess, Operands, Tracer

#: Format version written in the header line.
TRACE_VERSION = 2

#: Versions load_trace accepts.
SUPPORTED_VERSIONS = (1, 2)


def save_trace(tracer: Tracer, path: str | Path) -> int:
    """Write a captured trace to ``path``; returns the event count.

    Raises:
        ConfigError: if the tracer was not capturing (counts-only
            tracers have no events to serialize).
    """
    if not tracer.capture:
        raise ConfigError("save_trace needs a Tracer(capture=True)")
    p = Path(path)
    n = 0
    with p.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"repro_trace": TRACE_VERSION}) + "\n")
        for ev in tracer.events:
            rec: dict = {"o": ev.opclass.value, "e": ev.elems, "w": ev.eew}
            if ev.lmul != 1:
                rec["m"] = ev.lmul
            if ev.mem is not None:
                rec["k"] = ev.mem.kind
                rec["b"] = ev.mem.base
                rec["s"] = ev.mem.stride
                rec["l"] = ev.mem.is_load
                if ev.mem.offsets is not None:
                    rec["x"] = list(ev.mem.offsets)
                if ev.mem.seq >= 0:
                    rec["q"] = ev.mem.seq
                rec["ms"] = ev.mem.sew
                rec["ml"] = ev.mem.lmul
            if ev.ops is not None:
                op: dict = {"mn": ev.ops.mnemonic}
                if ev.ops.vd is not None:
                    op["vd"] = ev.ops.vd
                if ev.ops.vs:
                    op["vs"] = list(ev.ops.vs)
                if ev.ops.vidx is not None:
                    op["vi"] = ev.ops.vidx
                if ev.ops.imm is not None:
                    op["im"] = ev.ops.imm
                if ev.ops.merges:
                    op["mg"] = True
                if ev.ops.avl is not None:
                    op["a"] = ev.ops.avl
                rec["op"] = op
            fh.write(json.dumps(rec) + "\n")
            n += 1
    return n


def load_trace(path: str | Path) -> Tracer:
    """Read a trace file back into a capturing tracer.

    The returned tracer has both per-class statistics and full events,
    so it can be replayed with :meth:`repro.sim.Simulator.run_trace`.

    Raises:
        ConfigError: naming ``file:line`` for a bad header or any event
            that does not follow the format above: an unknown opclass or
            access kind; non-integer or negative sizes; an element width
            that is not a positive multiple of 8; an LMUL outside
            :data:`~repro.isa.encoding.LMUL_CHOICES`; memory fields on a
            non-memory opclass, or none on a memory one; an access kind
            or ``l`` flag that disagrees with the opclass; a sequence
            number, SEW or LMUL stamp that disagrees with the event; a
            register field that is not an architectural register; or an
            indexed access without exactly one integer offset per element.
    """
    p = Path(path)
    tracer = Tracer(capture=True)
    with p.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: not a repro trace file") from exc
        version = header.get("repro_trace") if isinstance(header, dict) else None
        if version not in SUPPORTED_VERSIONS:
            raise ConfigError(f"{p}: unsupported trace version {version!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("event is not a JSON object")
                opclass = OpClass(rec["o"])
                elems = _int(rec, "e")
                if elems < 0:
                    raise ValueError(f"negative element count {elems}")
                eew = _int(rec, "w")
                if eew <= 0 or eew % 8:
                    raise ValueError(
                        f"element width {eew} is not a positive multiple of 8")
                lmul = _int(rec, "m", 1)
                if lmul not in LMUL_CHOICES:
                    raise ValueError(f"LMUL {lmul} is not one of {LMUL_CHOICES}")
                mem = _mem(rec, opclass, elems, eew, lmul, len(tracer))
                ops = _ops(rec["op"]) if "op" in rec else None
                tracer.record(opclass, elems, eew, mem, lmul=lmul, ops=ops)
            except (KeyError, ValueError, TypeError) as exc:
                raise ConfigError(f"{p}:{lineno}: malformed event: {exc}") from exc
    return tracer


#: Event fields that describe a memory access.
_MEM_FIELDS = frozenset({"k", "b", "s", "l", "x", "q", "ms", "ml"})


def _int(rec: dict[str, Any], key: str, default: int | None = None) -> int:
    """Integer field ``key`` of an event (booleans and strings rejected)."""
    value = rec[key] if default is None else rec.get(key, default)
    if type(value) is not int:
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _mem(rec: dict[str, Any], opclass: OpClass, elems: int, eew: int,
         lmul: int, seq: int) -> MemAccess | None:
    """The memory access of event number ``seq``; None for the classes
    that do not reference memory."""
    if opclass not in IS_MEM:
        extra = sorted(_MEM_FIELDS & rec.keys())
        if extra:
            raise ValueError(f"{opclass.value} event carries memory fields {extra}")
        return None
    if "k" not in rec:
        raise ValueError(f"{opclass.value} event without an access kind 'k'")
    kind = rec["k"]
    if kind not in ("unit", "strided", "indexed"):
        raise ValueError(f"unknown access kind {kind!r}")
    if kind != MEM_KIND[opclass]:
        raise ValueError(f"{kind} access on a {opclass.value} event")
    is_load = opclass in IS_LOAD
    flag = rec.get("l", is_load)
    if type(flag) is not bool:
        raise ValueError(f"field 'l' must be a boolean, got {flag!r}")
    if flag != is_load:
        raise ValueError(f"'l': {json.dumps(flag)} on a {opclass.value} event")
    for key, want in (("q", seq), ("ms", eew), ("ml", lmul)):
        if key in rec and _int(rec, key) != want:
            raise ValueError(f"field {key!r} is {rec[key]}, the event's is {want}")
    return MemAccess(kind=kind, base=_int(rec, "b"), elems=elems,
                     ebytes=eew // 8, stride=_int(rec, "s", 0),
                     offsets=_offsets(rec, elems), is_load=is_load)


def _offsets(rec: dict[str, Any], elems: int) -> tuple[int, ...] | None:
    """The byte offsets of an indexed access; None for the other kinds."""
    if rec["k"] != "indexed":
        if "x" in rec:
            raise ValueError(f"{rec['k']} access carries offsets")
        return None
    if "x" not in rec:
        raise ValueError("indexed access without offsets")
    offsets = rec["x"]
    if not isinstance(offsets, list) or any(type(o) is not int for o in offsets):
        raise ValueError("offsets must be a list of integers")
    if len(offsets) != elems:
        raise ValueError(f"{len(offsets)} offsets for {elems} elements")
    return tuple(offsets)


def _ops(op: Any) -> Operands:
    """The operand metadata of an event."""
    if not isinstance(op, dict):
        raise ValueError(f"field 'op' must be an object, got {op!r}")
    mn = op["mn"]
    if not isinstance(mn, str):
        raise ValueError(f"mnemonic must be a string, got {mn!r}")
    vs = op.get("vs", [])
    if not isinstance(vs, list):
        raise ValueError(f"field 'vs' must be a list of registers, got {vs!r}")
    merges = op.get("mg", False)
    if type(merges) is not bool:
        raise ValueError(f"field 'mg' must be a boolean, got {merges!r}")
    avl = _int(op, "a") if "a" in op else None
    if avl is not None and avl < 0:
        raise ValueError(f"negative AVL {avl}")
    return Operands(
        mnemonic=mn,
        vd=_reg(op.get("vd")),
        vs=tuple(_reg(r) for r in vs),
        vidx=_reg(op.get("vi")),
        imm=_int(op, "im") if "im" in op else None,
        merges=merges,
        avl=avl,
    )


def _reg(value: Any) -> Any:
    """An architectural vector register number (None passes through)."""
    if value is not None and (type(value) is not int
                              or not 0 <= value < NUM_VREGS):
        raise ValueError(f"register {value!r} is not one of v0..v{NUM_VREGS - 1}")
    return value
