"""The one instruction trace of the functional and abstract machines.

Every instruction a machine retires is reported to its :class:`Tracer`.
The tracer plays the role Spike's commit log and gem5's statistics play
in the paper's toolchain: it yields the per-:class:`~repro.isa.OpClass`
counts (:class:`OpStats`) the analytical models are validated against
and, in *capture* mode, the full instruction stream with the address
of every memory access, which the exact cache simulator replays.

A dynamic instruction stream is a loop unrolling: almost every
instruction repeats an earlier one with the same *signature* —
mnemonic, registers, vector configuration, stride — and differs at
most in its memory base address, its index offsets or its requested
AVL.  So the tracer interns each distinct signature once as a
:class:`Sig` and records the stream as one signature id per
instruction, plus a per-signature list of per-occurrence payloads:

- memory signatures keep the base address of each occurrence (with the
  byte offsets of an indexed access);
- configuration signatures (vsetvl, whilelt) keep the requested AVL;
- every other signature is the instruction itself.

The concrete machines record integers; the abstract machines of
:mod:`repro.analysis.symbolic` record into the same signatures with
:class:`~repro.analysis.symbolic.core.SymInt` values where a quantity
varies with VLEN.  The machines retire through the primitive table of
:mod:`repro.rvv.prims` (:meth:`Tracer.retire`, :meth:`Tracer.configure`);
hand-built and loaded instructions go through :meth:`Tracer.record`.

Everything else is read off the signatures:

- :meth:`Tracer.stats_at` / :attr:`Tracer.by_class` fold the counts per
  signature, at one domain point for symbolic traces;
- :attr:`Tracer.events`, :meth:`Tracer.mem_events` and
  :meth:`Tracer.instr_at` materialize instructions in program order,
  each memory access stamped with its sequence number and vtype;
- :meth:`Tracer.line_stream` expands each memory signature's payloads
  through its fixed access pattern into the replayed cache-line stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Any, Iterator, Mapping

import numpy as np
import numpy.typing as npt

from repro.isa import FLOPS_PER_ELEM, OpClass

#: Elements per chunk of memory events in :meth:`Tracer.line_stream`.
LINE_CHUNK_ELEMS = 1 << 16


@dataclass(frozen=True)
class Operands:
    """Register-level operand metadata for one retired intrinsic.

    Machines attach one of these to every :class:`InstrEvent` so the
    static-analysis passes in :mod:`repro.analysis` can reason about
    register groups, def-use chains and vtype dataflow without guessing
    from opcode classes alone.

    ``vd`` is the destination vector register (or None for stores and
    configuration instructions), ``vs`` the tuple of vector source
    registers, ``vidx`` the index-vector register of an indexed access,
    ``imm`` a scalar immediate such as a slide amount, ``merges`` marks
    read-modify-write destinations (vfmacc, vslideup tails), and ``avl``
    the application vector length requested by a vsetvl.
    """

    mnemonic: str
    vd: int | None = None
    vs: tuple[int, ...] = ()
    vidx: int | None = None
    imm: int | None = None
    merges: bool = False
    avl: int | None = None


@dataclass(frozen=True)
class MemAccess:
    """A compact descriptor of one vector memory instruction's footprint.

    ``kind`` is "unit", "strided" or "indexed".  For unit and strided
    accesses the elements are at ``base + i*stride`` for ``i in
    range(elems)``; for indexed accesses they are at ``base + offsets[i]``.

    ``seq``, ``sew`` and ``lmul`` are the access's position in program
    order and the vtype active when it retired, so the cache replay and
    the analysis IR share one source of truth.
    """

    kind: str
    base: int
    elems: int
    ebytes: int
    stride: int = 0
    offsets: tuple[int, ...] | None = None
    is_load: bool = True
    seq: int = -1
    sew: int = 32
    lmul: int = 1

    def element_addresses(self) -> npt.NDArray[np.int64]:
        """Byte addresses of every element touched, in access order."""
        if self.kind == "indexed":
            assert self.offsets is not None
            return self.base + np.asarray(self.offsets, dtype=np.int64)
        return self.base + np.arange(self.elems, dtype=np.int64) * self.stride

    def line_addresses(self, line_bytes: int = 64) -> npt.NDArray[np.int64]:
        """Cache-line IDs touched, ascending and deduplicated.

        A single vector memory instruction touches each line at most once
        from the cache's point of view (the load/store unit coalesces
        element accesses to the same line), which is how gem5 models
        vector memory traffic too.
        """
        addrs = self.element_addresses()
        last = addrs + (self.ebytes - 1)
        # Ascending line order, not access order (the two differ for
        # negative strides and most indexed patterns).  The replayed
        # statistics are defined on this order; :meth:`Tracer.line_stream`
        # reproduces it in bulk.
        return np.union1d(addrs // line_bytes, last // line_bytes)

    @property
    def bytes(self) -> int:
        """Bytes of payload moved by the instruction."""
        return self.elems * self.ebytes


@dataclass(frozen=True)
class SymMemAccess(MemAccess):
    """An indexed access of a symbolic trace.

    ``base``/``elems`` may be SymInt (typed loosely on the base class);
    ``offsets`` is None and the footprint lives in ``sym_offsets``
    instead: the abstract index-register content at the time of the
    access, resolvable per domain point.
    """

    sym_offsets: Any = None


@dataclass(frozen=True)
class InstrEvent:
    """One dynamic instruction, as reported by a machine.

    ``lmul`` is the register-group multiplier active at retirement and
    ``ops`` the operand metadata (None for scalar bookkeeping and for
    legacy traces loaded from version-1 files, which predate operand
    capture).
    """

    opclass: OpClass
    elems: int
    eew: int
    mem: MemAccess | None = None
    lmul: int = 1
    ops: Operands | None = None


@dataclass
class OpStats:
    """Accumulated counts for one opcode class."""

    instrs: int = 0
    elems: int = 0
    flops: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0

    def merge(self, other: "OpStats") -> None:
        self.instrs += other.instrs
        self.elems += other.elems
        self.flops += other.flops
        self.bytes_loaded += other.bytes_loaded
        self.bytes_stored += other.bytes_stored


class Sig:
    """One interned instruction signature.

    ``elems`` is the (possibly symbolic) element count every occurrence
    retires; ``vl``/``sew``/``cfg_lmul`` the configuration it retired
    under (for a configuration signature: the values it establishes;
    None before any configuration).  ``kind``/``ebytes``/``stride``/
    ``is_load`` are the memory pattern (``kind`` None for non-memory
    signatures).  ``payload`` holds the per-occurrence data (see the
    module docstring) or is None when the signature is the whole
    instruction; ``count`` counts occurrences and ``first`` is the
    stream position of the first one.
    """

    __slots__ = ("sid", "key", "opclass", "ops", "eew", "lmul",
                 "elems", "vl", "sew", "cfg_lmul", "is_config", "kind",
                 "ebytes", "stride", "is_load", "payload", "first", "count",
                 "_event", "_mem")

    def __init__(self, sid: int, key: Any, opclass: OpClass,
                 ops: Operands | None, eew: int, lmul: int, elems: Any,
                 cfg: "Sig | None", is_config: bool, kind: str | None,
                 ebytes: int, stride: Any, is_load: bool,
                 payload: list[Any] | None, first: int) -> None:
        self.sid = sid
        self.key = key
        self.opclass = opclass
        self.ops = ops
        self.eew = eew
        self.lmul = lmul
        self.elems = elems
        if is_config:
            self.vl, self.sew, self.cfg_lmul = elems, eew, lmul
        elif cfg is None:
            self.vl = self.sew = self.cfg_lmul = None
        else:
            self.vl, self.sew, self.cfg_lmul = cfg.vl, cfg.sew, cfg.cfg_lmul
        self.is_config = is_config
        self.kind = kind
        self.ebytes = ebytes
        self.stride = stride
        self.is_load = is_load
        self.payload = payload
        self.first = first
        self.count = 0
        self._event: InstrEvent | None = None
        self._mem = None if kind is None else dict(
            kind=kind, elems=elems, ebytes=ebytes, stride=stride, offsets=None,
            is_load=is_load, sew=eew, lmul=lmul)

    @property
    def event(self) -> InstrEvent:
        """The instruction of a payload-free signature (shared)."""
        if self._event is None:
            self._event = InstrEvent(self.opclass, self.elems, self.eew, None,
                                     self.lmul, self.ops)
        return self._event

    def event_at(self, item: Any, seq: int) -> InstrEvent:
        """The occurrence with payload ``item`` at stream position ``seq``."""
        if self.payload is None:
            return self.event
        if self.kind is None:  # a configuration: the payload is its AVL
            return InstrEvent(self.opclass, self.elems, self.eew, None,
                              self.lmul, Operands(self.ops.mnemonic, avl=item))  # type: ignore[union-attr]
        return InstrEvent(self.opclass, self.elems, self.eew,
                          self.mem_at(item, seq), self.lmul, self.ops)

    def mem_at(self, item: Any, seq: int) -> MemAccess:
        """The memory access of the occurrence with payload ``item``."""
        if self.kind != "indexed":
            return _frozen(MemAccess, self._mem, base=item, seq=seq)
        base, offs = item
        if offs is None or isinstance(offs, np.ndarray):
            return _frozen(MemAccess, self._mem, base=base, seq=seq,
                           offsets=None if offs is None else tuple(offs.tolist()))
        return _frozen(SymMemAccess, self._mem, base=base, seq=seq,
                       sym_offsets=offs)


def _frozen(cls: type, fields: dict[str, Any], **varying: Any) -> Any:
    """A frozen dataclass ``cls`` from its field values, without running
    its ``__init__`` (one per memory access read back, so it matters)."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields, **varying)
    return obj


def _hashable(x: Any) -> Any:
    """A signature-key component for a possibly symbolic value.

    SymInt is deliberately unhashable (its ``__eq__`` is a domain
    guard), so symbolic values key by their per-point value tuple,
    which is stable for the whole run.
    """
    if isinstance(x, tuple):
        return tuple(map(_hashable, x))
    return getattr(x, "values", x)


class Tracer:
    """The signature-interned instruction trace (see the module docstring).

    Args:
        capture: when True the tracer keeps the instruction stream and
            every payload, so :attr:`events`, :meth:`mem_events` and
            :meth:`line_stream` can replay it.  A counting tracer keeps
            only the per-signature counts, whatever the run length.
    """

    def __init__(self, capture: bool = False) -> None:
        self.capture = capture
        self.sigs: list[Sig] = []
        #: The signature id of every instruction, in program order
        #: (empty unless capturing).
        self.sig_ids: list[int] = []
        self._map: dict[Any, Sig] = {}
        self._cfg: Sig | None = None
        self._n = 0
        self._events: list[InstrEvent] = []
        self._cursors: list[int] = []
        self._ids: npt.NDArray[np.int64] | None = None

    def __len__(self) -> int:
        """Instructions recorded."""
        return self._n

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def retire(self, prim: Any, mn: str | None, key: Any, args: tuple,
               item: Any = None) -> None:
        """Record one instruction of a :class:`~repro.rvv.prims.Prim`.

        ``key`` is the signature part of the call's arguments ``args``
        and ``item`` its payload (memory primitives only).
        """
        k = (prim, mn, key, self._cfg)
        try:
            sig = self._map.get(k)
        except TypeError:  # a symbolic operand
            k = (prim, mn, _hashable(key), self._cfg)
            sig = self._map.get(k)
        if sig is None:
            sig = self._intern_prim(k, prim, mn, args)
        # _occur, inlined: this runs once per retired instruction.
        sig.count += 1
        self._n += 1
        if self.capture:
            self.sig_ids.append(sig.sid)
            if sig.payload is not None:
                sig.payload.append(item)

    def configure(self, prim: Any, vl: Any, sew: int, lmul: int,
                  avl: Any) -> None:
        """Record a configuration instruction granting ``vl`` for ``avl``."""
        k = (prim, sew, lmul, vl)
        try:
            sig = self._map.get(k)
        except TypeError:
            k = (prim, sew, lmul, _hashable(vl))
            sig = self._map.get(k)
        if sig is None:
            sig = self._new(k, prim.opclass, Operands(prim.mnemonic), sew,
                            lmul, vl, True, None, 0, 0, True, True)
        self._occur(sig, avl)
        self._cfg = sig

    def record(
        self,
        opclass: OpClass,
        elems: int,
        eew: int,
        mem: MemAccess | None = None,
        *,
        lmul: int = 1,
        ops: Operands | None = None,
    ) -> None:
        """Record one hand-built instruction (loaded traces, tests).

        The access's position, SEW and LMUL are those of the instruction;
        any ``seq``/``sew``/``lmul`` already on ``mem`` is not kept.

        Raises:
            ValueError: if ``mem`` covers a different number of elements
                than the instruction, or an indexed access carries a
                different number of offsets.
        """
        is_config = opclass is OpClass.VSETVL or (
            opclass is OpClass.VMASK and ops is not None and ops.avl is not None)
        cfg = None if is_config else self._cfg
        item: Any = None
        pattern = None
        if mem is not None:
            if mem.elems != elems:
                raise ValueError(
                    f"memory access of {mem.elems} elements on an "
                    f"instruction of {elems}")
            pattern = (mem.kind, mem.ebytes, mem.stride, mem.is_load)
            item = mem.base
            if mem.kind == "indexed":
                offs = mem.offsets
                if offs is not None:
                    if len(offs) != elems:
                        raise ValueError(f"{len(offs)} offsets for {elems} elements")
                    offs = np.asarray(offs, dtype=np.int64)
                item = (mem.base, offs)
        k = (opclass, elems, eew, lmul, ops, pattern, cfg)
        sig = self._map.get(k)
        if sig is None:
            kind, ebytes, stride, is_load = pattern or (None, 0, 0, True)
            sig = self._new(k, opclass, ops, eew, lmul, elems, is_config,
                            kind, ebytes, stride, is_load, kind is not None)
        self._occur(sig, item)
        if is_config:
            self._cfg = sig

    def _intern_prim(self, k: Any, prim: Any, mn: str | None,
                     args: tuple) -> Sig:
        ops = prim.operands(mn, args)
        cfg = self._cfg
        if cfg is None or prim.opclass is OpClass.SCALAR:
            elems, lmul = 1, 1
        else:
            elems, lmul = cfg.elems, cfg.lmul
        kind = prim.kind
        stride = ops.imm if kind == "strided" else prim.eew // 8
        return self._new(k, prim.opclass, ops, prim.eew, lmul, elems, False,
                         kind, prim.eew // 8, stride, prim.is_load,
                         kind is not None)

    def _new(self, k: Any, opclass: OpClass, ops: Operands | None,
             eew: int, lmul: int, elems: Any, is_config: bool,
             kind: str | None, ebytes: int, stride: Any, is_load: bool,
             keeps_payload: bool) -> Sig:
        sig = Sig(len(self.sigs), k, opclass, ops, eew, lmul, elems,
                  self._cfg, is_config, kind, ebytes, stride, is_load,
                  [] if keeps_payload and self.capture else None, self._n)
        self.sigs.append(sig)
        self._map[k] = sig
        return sig

    def _occur(self, sig: Sig, item: Any) -> None:
        if sig.first < 0:
            sig.first = self._n
        sig.count += 1
        self._n += 1
        if self.capture:
            self.sig_ids.append(sig.sid)
            if sig.payload is not None:
                sig.payload.append(item)

    def reset(self) -> None:
        """Forget everything recorded so far.

        The active configuration stays in force: instructions recorded
        after a reset retire under it, as they do on the machine.
        """
        cfg = self._cfg
        self.sigs, self.sig_ids, self._map = [], [], {}
        self._cfg, self._n, self._ids = None, 0, None
        self._events, self._cursors = [], []
        if cfg is not None:
            self._cfg = self._new(cfg.key, cfg.opclass, cfg.ops, cfg.eew,
                                  cfg.lmul, cfg.elems, True, cfg.kind,
                                  cfg.ebytes, cfg.stride, cfg.is_load,
                                  cfg.payload is not None)
            self._cfg.first = -1

    # ------------------------------------------------------------------
    # Counts, folded per signature
    # ------------------------------------------------------------------
    def live_sigs(self) -> list[Sig]:
        """The signatures that occurred, in first-occurrence order."""
        return sorted((s for s in self.sigs if s.count),
                      key=attrgetter("first"))

    def stats_at(self, point_index: int | None = None) -> dict[OpClass, OpStats]:
        """Per-opclass counters, classes in first-recorded order.

        ``point_index`` selects the domain point at which the symbolic
        element counts of an abstract trace are read; concrete traces
        need none.  O(#signatures): every occurrence of a signature
        retires the same element count.
        """
        out: dict[OpClass, OpStats] = {}
        for s in self.live_sigs():
            c = s.count
            e = s.elems
            ev = c * (e if isinstance(e, int) else e.values[point_index])
            st = out.get(s.opclass)
            if st is None:
                st = out[s.opclass] = OpStats()
            st.instrs += c
            st.elems += ev
            st.flops += FLOPS_PER_ELEM.get(s.opclass, 0) * ev
            if s.kind is not None:
                if s.is_load:
                    st.bytes_loaded += s.ebytes * ev
                else:
                    st.bytes_stored += s.ebytes * ev
        return out

    @property
    def by_class(self) -> Mapping[OpClass, OpStats]:
        """Per-class statistics of everything recorded (read-only)."""
        return MappingProxyType(self.stats_at())

    def max_grant_at(self, point_index: int) -> int:
        """The largest vl any configuration instruction granted."""
        mg = 0
        for s in self.sigs:
            if s.is_config and s.count:
                e = s.elems
                v = e if isinstance(e, int) else e.values[point_index]
                mg = max(mg, v)
        return mg

    @property
    def total_instrs(self) -> int:
        return self._n

    @property
    def total_flops(self) -> int:
        return sum(s.flops for s in self.by_class.values())

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_loaded + s.bytes_stored for s in self.by_class.values())

    def vector_instrs(self) -> int:
        """Dynamic vector instructions (everything except SCALAR)."""
        return sum(
            s.instrs for c, s in self.by_class.items() if c is not OpClass.SCALAR
        )

    def counts(self) -> dict[str, int]:
        """Instruction counts keyed by opclass value, for comparisons."""
        return {c.value: s.instrs for c, s in sorted(self.by_class.items())}

    # ------------------------------------------------------------------
    # The stream, in program order
    # ------------------------------------------------------------------
    def ids_array(self) -> npt.NDArray[np.int64]:
        """:attr:`sig_ids` as an int64 array (cached until it grows)."""
        if self._ids is None or self._ids.size != len(self.sig_ids):
            self._ids = np.asarray(self.sig_ids, dtype=np.int64)
        return self._ids

    def occurrences(self, sid: int) -> npt.NDArray[np.intp]:
        """Stream positions of every occurrence of signature ``sid``."""
        return np.flatnonzero(self.ids_array() == sid)

    @property
    def events(self) -> list[InstrEvent]:
        """Every captured instruction in program order (empty unless
        capturing); built on first access, then extended."""
        evs = self._events
        if self.capture and len(evs) < self._n:
            sigs, ids, cur = self.sigs, self.sig_ids, self._cursors
            cur.extend([0] * (len(sigs) - len(cur)))
            for seq in range(len(evs), self._n):
                s = sigs[ids[seq]]
                if s.payload is None:
                    evs.append(s.event)
                    continue
                r = cur[s.sid]
                cur[s.sid] = r + 1
                evs.append(s.event_at(s.payload[r], seq))
        return evs

    def instr_at(self, pos: int) -> Any:
        """The :class:`~repro.analysis.ir.LiftedInstr` at stream position
        ``pos`` alone — O(pos), for quoting a finding's instruction."""
        from repro.analysis.ir import LiftedInstr

        sid = self.sig_ids[pos]
        s = self.sigs[sid]
        item = None
        if s.payload is not None:
            item = s.payload[self.sig_ids[:pos].count(sid)]
        return LiftedInstr(pos, s.event_at(item, pos), s.vl, s.sew, s.cfg_lmul)

    def mem_events(self) -> Iterator[MemAccess]:
        """All captured memory accesses in program order, as in
        :attr:`events` (which this does not build).

        Raises:
            RuntimeError: if the tracer was not created with capture=True.
        """
        if not self.capture:
            raise RuntimeError("tracer was created with capture=False; no events kept")
        sigs = self.sigs
        cur = [0] * len(sigs)
        for seq, sid in enumerate(self.sig_ids):
            s = sigs[sid]
            if s.kind is not None:
                r = cur[sid]
                cur[sid] = r + 1
                yield s.mem_at(s.payload[r], seq)  # type: ignore[index]

    def line_stream(
        self, line_bytes: int = 64
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.bool_]]:
        """The cache-line stream of all memory events and its store mask.

        Events follow each other in program order; each contributes the
        ascending, deduplicated IDs of the lines it touches, exactly
        :meth:`MemAccess.line_addresses`.  Each memory signature's
        payloads become one array of bases (and one of offsets), which
        its fixed pattern expands; the IDs are computed in bulk over
        chunks of about :data:`LINE_CHUNK_ELEMS` elements, so the
        temporaries stay small whatever the trace length.

        Raises:
            RuntimeError: if the tracer was not created with capture=True.
            ValueError: for an indexed access recorded without offsets.
        """
        if not self.capture:
            raise RuntimeError("tracer was created with capture=False; no events kept")
        mem = [s for s in self.sigs if s.kind is not None and s.payload]
        if not mem:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        n_sigs = len(self.sigs)

        def by_sid(values: list[Any], dtype: type) -> np.ndarray:
            out = np.zeros(n_sigs, dtype=dtype)
            out[[s.sid for s in mem]] = values
            return out

        # Per-signature columns, laid end to end in signature order.
        bases: list[np.ndarray] = []
        offsets: list[np.ndarray] = []
        o_start: list[int] = []
        n_offs = 0
        for s in mem:
            o_start.append(n_offs)
            if s.kind == "indexed":
                b, offs = zip(*s.payload)  # type: ignore[misc]
                if any(o is None for o in offs):
                    raise ValueError("indexed memory access without offsets")
                bases.append(np.array(b, dtype=np.int64))
                offsets.extend(offs)
                n_offs += len(offs) * s.elems
            else:
                bases.append(np.array(s.payload, dtype=np.int64))
        counts = [len(s.payload) for s in mem]  # type: ignore[arg-type]
        s_elems = by_sid([s.elems for s in mem], np.int64)
        s_start = by_sid(np.cumsum(counts) - counts, np.int64)
        s_ostart = by_sid(o_start, np.int64)

        # Each memory event's place among its signature's occurrences.
        ids = self.ids_array()
        ev_sid = ids[by_sid([True] * len(mem), bool)[ids]]
        order = np.argsort(ev_sid, kind="stable")
        flat = np.empty(order.size, dtype=np.int64)
        flat[order] = np.arange(order.size)
        ev = _MemColumns(
            base=np.concatenate(bases)[flat],
            elems=s_elems[ev_sid],
            ebytes=by_sid([s.ebytes for s in mem], np.int64)[ev_sid],
            stride=by_sid([s.stride for s in mem], np.int64)[ev_sid],
            indexed=by_sid([s.kind == "indexed" for s in mem], bool)[ev_sid],
            is_load=by_sid([s.is_load for s in mem], bool)[ev_sid],
            o_start=s_ostart[ev_sid] + (flat - s_start[ev_sid]) * s_elems[ev_sid],
        )
        x_offs = (np.concatenate(offsets) if offsets
                  else np.empty(0, dtype=np.int64))

        parts = []
        csum = np.cumsum(ev.elems)
        start = 0
        while start < csum.size:
            before = csum[start - 1] if start else 0
            end = int(np.searchsorted(csum, before + LINE_CHUNK_ELEMS)) + 1
            parts.append(_chunk_lines(ev[start:min(end, csum.size)], x_offs,
                                      line_bytes))
            start = end
        lines, stores = zip(*parts)
        return np.concatenate(lines), np.concatenate(stores)

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """A human-readable per-class table (used by examples)."""
        rows = [f"{'class':<16}{'instrs':>12}{'elems':>14}{'flops':>14}{'bytes':>14}"]
        for c, s in sorted(self.by_class.items()):
            rows.append(
                f"{c.value:<16}{s.instrs:>12}{s.elems:>14}{s.flops:>14}"
                f"{s.bytes_loaded + s.bytes_stored:>14}"
            )
        rows.append(
            f"{'total':<16}{self.total_instrs:>12}{'':>14}{self.total_flops:>14}"
            f"{self.total_bytes:>14}"
        )
        return "\n".join(rows)


@dataclass
class _MemColumns:
    """Per-event columns of a run of memory events, in program order.

    ``o_start`` locates an indexed event's offsets in the flat offsets
    array (unused for the other kinds).
    """

    base: npt.NDArray[np.int64]
    elems: npt.NDArray[np.int64]
    ebytes: npt.NDArray[np.int64]
    stride: npt.NDArray[np.int64]
    indexed: npt.NDArray[np.bool_]
    is_load: npt.NDArray[np.bool_]
    o_start: npt.NDArray[np.int64]

    def __getitem__(self, sl: slice) -> "_MemColumns":
        return _MemColumns(*(getattr(self, f)[sl] for f in self.__dataclass_fields__))


def _ragged(
    counts: npt.NDArray[np.int64],
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.int64]]:
    """Owner segment and rank within it of every item, for segments of
    ``counts`` items laid end to end."""
    owner = np.repeat(np.arange(counts.size), counts)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, rank


def _chunk_lines(
    ev: _MemColumns, x_offs: npt.NDArray[np.int64], line_bytes: int,
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.bool_]]:
    """The line IDs and store flags of a run of memory events.

    An event whose elements tile a contiguous byte range (not indexed,
    ``|stride| <= ebytes <= line_bytes``) touches every line of that
    range, so it expands straight to a line range.  Any other event
    expands per element to the first and last line of each element,
    which are then sorted and deduplicated per event.
    """
    L = line_bytes
    base, elems, ebytes, stride = ev.base, ev.elems, ev.ebytes, ev.stride
    n = base.size
    contig = ~ev.indexed & (ebytes >= 1) & (ebytes <= L) & (np.abs(stride) <= ebytes)

    # Contiguous events: one line range each.
    c = np.flatnonzero(contig & (elems > 0))
    span = (elems[c] - 1) * stride[c]
    lo = (base[c] + np.minimum(span, 0)) // L
    hi = (base[c] + np.maximum(span, 0) + ebytes[c] - 1) // L
    c_lines = hi - lo + 1

    # Other events: the first and last line of every element.
    s = np.flatnonzero(~contig & ~ev.indexed & (elems > 0))
    owner, rank = _ragged(elems[s])
    s_ev = s[owner]
    s_addr = base[s_ev] + rank * stride[s_ev]
    x = np.flatnonzero(ev.indexed)
    owner, rank = _ragged(elems[x])
    x_ev = x[owner]
    x_addr = base[x_ev] + x_offs[ev.o_start[x_ev] + rank]
    e_ev = np.concatenate((s_ev, x_ev))
    e_addr = np.concatenate((s_addr, x_addr))
    p_ev = np.concatenate((e_ev, e_ev))
    p_line = np.concatenate((e_addr // L, (e_addr + ebytes[e_ev] - 1) // L))
    order = np.lexsort((p_line, p_ev))
    p_ev, p_line = p_ev[order], p_line[order]
    keep = np.ones(p_ev.size, dtype=bool)
    keep[1:] = (p_ev[1:] != p_ev[:-1]) | (p_line[1:] != p_line[:-1])
    p_ev, p_line = p_ev[keep], p_line[keep]

    # Lay every event's lines out in program order.
    p_count = np.bincount(p_ev, minlength=n)
    count = p_count.copy()
    count[c] = c_lines
    start = np.cumsum(count) - count
    out = np.empty(int(count.sum()), dtype=np.int64)
    owner, rank = _ragged(c_lines)
    out[start[c][owner] + rank] = lo[owner] + rank
    p_rank = np.arange(p_ev.size) - (np.cumsum(p_count) - p_count)[p_ev]
    out[start[p_ev] + p_rank] = p_line
    return out, np.repeat(~ev.is_load, count)


def assert_counts_match(
    expected: dict[str, int],
    actual: dict[str, int],
    context: str = "",
) -> None:
    """Raise :class:`TraceValidationError` unless two count maps agree.

    Used by the model-vs-trace validation harness; zero-count classes are
    treated as absent on both sides.
    """
    from repro.errors import TraceValidationError

    exp = {k: v for k, v in expected.items() if v}
    act = {k: v for k, v in actual.items() if v}
    if exp != act:
        keys = sorted(set(exp) | set(act))
        diff = "\n".join(
            f"  {k:<16} expected={exp.get(k, 0):>10} actual={act.get(k, 0):>10}"
            for k in keys
            if exp.get(k, 0) != act.get(k, 0)
        )
        raise TraceValidationError(
            f"instruction counts disagree{(' for ' + context) if context else ''}:\n{diff}"
        )
