"""Instruction tracing and accounting for the functional simulators.

Every intrinsic executed on :class:`repro.rvv.RvvMachine` or
:class:`repro.sve.SveMachine` reports one dynamic instruction to the
machine's :class:`Tracer`.  The tracer plays the role Spike's commit log
and gem5's statistics play in the paper's toolchain:

- it accumulates per-:class:`~repro.isa.OpClass` instruction, element,
  flop and byte counts (:class:`OpStats`), which the analytical stream
  models of :mod:`repro.model` are validated against; and
- in *capture* mode it keeps every instruction, including the memory
  access descriptor of each memory instruction, so the exact cache
  simulator can replay the address stream of a functional run.

Recording sits on the hot path of every functional run, so
:meth:`Tracer.record` only appends one row ``(opclass, elems, eew, mem,
lmul, ops)``.  Everything else is derived from the rows when read:

- :attr:`Tracer.by_class` folds the rows not yet counted into the
  per-class :class:`OpStats`;
- :attr:`Tracer.events` builds the :class:`InstrEvent` list on first
  access (disassembly, analysis, trace export) and caches it;
- :meth:`Tracer.mem_events` yields the stamped :class:`MemAccess` of
  each memory row without building events; and
- :meth:`Tracer.line_stream` computes the cache-line stream a replay
  needs in bulk, over bounded chunks of memory events.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np
import numpy.typing as npt

from repro.isa import FLOPS_PER_ELEM, OpClass

#: Records a tracer buffers between two folds into its per-class counts
#: (a counting tracer then drops them).
FOLD_ROWS = 4096

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


#: :class:`Operands` constructor that hands out shared instances.  The
#: machines retire one operand set per instruction but a kernel uses only
#: a few hundred distinct ones, and the objects are immutable.
intern_operands = lru_cache(maxsize=1024, typed=True)(Operands)


@dataclass(frozen=True)
class MemAccess:
    """A compact descriptor of one vector memory instruction's footprint.

    ``kind`` is "unit", "strided" or "indexed".  For unit and strided
    accesses the elements are at ``base + i*stride`` for ``i in
    range(elems)``; for indexed accesses they are at ``base + offsets[i]``.

    ``seq``, ``sew`` and ``lmul`` are stamped by the tracer in capture
    mode: the event's sequence number in program order and the vtype
    active when the access retired, so the cache replay and the analysis
    IR share one source of truth.
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
class InstrEvent:
    """One dynamic instruction, as reported by a machine.

    ``lmul`` is the register-group multiplier active at retirement and
    ``ops`` the operand metadata (None for legacy traces loaded from
    version-1 files, which predate operand capture).
    """

    opclass: OpClass
    elems: int
    eew: int
    mem: MemAccess | None = None
    lmul: int = 1
    ops: Operands | None = None


#: One recorded instruction: ``(opclass, elems, eew, mem, lmul, ops)``.
_Row = tuple[OpClass, int, int, MemAccess | None, int, Operands | None]


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


class Tracer:
    """Accumulates instruction statistics and, optionally, the full trace.

    Args:
        capture: when True, every recorded instruction (including its
            :class:`MemAccess`) is kept, so :attr:`events`,
            :meth:`mem_events` and :meth:`line_stream` can replay the
            address stream through a cache model.  Leave False for long
            runs where only counts are needed: such a tracer folds its
            buffer into the counts every :data:`FOLD_ROWS` records and
            drops it.
    """

    def __init__(self, capture: bool = False) -> None:
        self.capture = capture
        self._rows: list[_Row] = []
        self._folded = 0  # rows already counted in _stats
        self._fold_at = FOLD_ROWS
        self._stats: dict[OpClass, OpStats] = {}
        self._events: list[InstrEvent] = []

    # ------------------------------------------------------------------
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
        """Account one dynamic instruction."""
        rows = self._rows
        rows.append((opclass, elems, eew, mem, lmul, ops))
        if len(rows) >= self._fold_at:
            self._fold()

    def _fold(self) -> None:
        """Add the rows not yet counted to the per-class statistics.

        Classes enter :attr:`by_class` in the order they were first
        recorded, as they did when every record updated it directly.
        """
        rows = self._rows
        acc: dict[OpClass, list[int]] = {}
        for opclass, elems, _eew, mem, _lmul, _ops in rows[self._folded:]:
            a = acc.get(opclass)
            if a is None:
                a = acc[opclass] = [0, 0, 0, 0]
            a[0] += 1
            a[1] += elems
            if mem is not None:
                a[2 if mem.is_load else 3] += mem.bytes
        stats = self._stats
        for opclass, (instrs, elems, loaded, stored) in acc.items():
            st = stats.get(opclass)
            if st is None:
                st = stats[opclass] = OpStats()
            st.instrs += instrs
            st.elems += elems
            st.flops += FLOPS_PER_ELEM.get(opclass, 0) * elems
            st.bytes_loaded += loaded
            st.bytes_stored += stored
        if self.capture:
            self._folded = len(rows)
            self._fold_at = len(rows) + FOLD_ROWS
        else:
            rows.clear()

    # ------------------------------------------------------------------
    # Views derived from the rows
    # ------------------------------------------------------------------
    @property
    def by_class(self) -> Mapping[OpClass, OpStats]:
        """Per-class statistics of everything recorded (read-only)."""
        if len(self._rows) > self._folded:
            self._fold()
        return MappingProxyType(self._stats)

    @property
    def events(self) -> list[InstrEvent]:
        """Every captured instruction in program order (empty unless
        capturing).

        Built on first access and cached.  Each memory access is stamped
        with its event's sequence number and vtype unless it already
        carries a sequence number (loaded traces keep theirs).
        """
        evs = self._events
        if self.capture:
            rows = self._rows
            for seq in range(len(evs), len(rows)):
                opclass, elems, eew, mem, lmul, ops = rows[seq]
                if mem is not None and mem.seq < 0:
                    mem = _stamp(mem, seq, eew, lmul)
                evs.append(InstrEvent(opclass, elems, eew, mem, lmul, ops))
        return evs

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_instrs(self) -> int:
        return sum(s.instrs for s in self.by_class.values())

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

    def mem_events(self) -> Iterator[MemAccess]:
        """All captured memory accesses in program order, stamped as in
        :attr:`events` (which this does not build).

        Raises:
            RuntimeError: if the tracer was not created with capture=True.
        """
        if not self.capture:
            raise RuntimeError("tracer was created with capture=False; no events kept")
        for seq, (_opclass, _elems, eew, mem, lmul, _ops) in enumerate(self._rows):
            if mem is not None:
                yield mem if mem.seq >= 0 else _stamp(mem, seq, eew, lmul)

    def line_stream(
        self, line_bytes: int = 64
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.bool_]]:
        """The cache-line stream of all memory events and its store mask.

        Events follow each other in program order; each contributes the
        ascending, deduplicated IDs of the lines it touches, exactly
        :meth:`MemAccess.line_addresses`.  The IDs are computed in bulk,
        over chunks of about :data:`LINE_CHUNK_ELEMS` elements so that
        the temporaries stay small whatever the trace length.

        Raises:
            RuntimeError: if the tracer was not created with capture=True.
        """
        if not self.capture:
            raise RuntimeError("tracer was created with capture=False; no events kept")
        parts = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))]
        chunk: list[MemAccess] = []
        size = 0
        for row in self._rows:
            mem = row[3]
            if mem is not None:
                chunk.append(mem)
                size += mem.elems
                if size >= LINE_CHUNK_ELEMS:
                    parts.append(_chunk_lines(chunk, line_bytes))
                    chunk, size = [], 0
        if chunk:
            parts.append(_chunk_lines(chunk, line_bytes))
        lines, stores = zip(*parts)
        return np.concatenate(lines), np.concatenate(stores)

    def reset(self) -> None:
        """Forget everything recorded so far."""
        self._rows.clear()
        self._folded = 0
        self._fold_at = FOLD_ROWS
        self._stats.clear()
        self._events.clear()

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


def _stamp(mem: MemAccess, seq: int, sew: int, lmul: int) -> MemAccess:
    """``dataclasses.replace(mem, seq=seq, sew=sew, lmul=lmul)``, minus the
    cost of re-running the frozen constructor (subclass fields are kept)."""
    stamped = object.__new__(type(mem))
    stamped.__dict__.update(mem.__dict__, seq=seq, sew=sew, lmul=lmul)
    return stamped


_MEM_FIELDS = attrgetter("kind", "base", "elems", "ebytes", "stride", "is_load")


def _ragged(
    counts: npt.NDArray[np.int64],
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.int64]]:
    """Owner segment and rank within it of every item, for segments of
    ``counts`` items laid end to end."""
    owner = np.repeat(np.arange(counts.size), counts)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, rank


def _chunk_lines(
    mems: list[MemAccess], line_bytes: int,
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.bool_]]:
    """The line IDs and store flags of a run of memory events.

    An event whose elements tile a contiguous byte range (not indexed,
    ``|stride| <= ebytes <= line_bytes``) touches every line of that
    range, so it expands straight to a line range.  Any other event
    expands per element to the first and last line of each element,
    which are then sorted and deduplicated per event.
    """
    L = line_bytes
    kind, base_t, elems_t, ebytes_t, stride_t, is_load_t = zip(*map(_MEM_FIELDS, mems))
    n = len(mems)
    base = np.array(base_t, dtype=np.int64)
    elems = np.array(elems_t, dtype=np.int64)
    ebytes = np.array(ebytes_t, dtype=np.int64)
    stride = np.array(stride_t, dtype=np.int64)
    indexed = np.array(kind) == "indexed"
    contig = ~indexed & (ebytes >= 1) & (ebytes <= L) & (np.abs(stride) <= ebytes)

    # Contiguous events: one line range each.
    c = np.flatnonzero(contig & (elems > 0))
    span = (elems[c] - 1) * stride[c]
    lo = (base[c] + np.minimum(span, 0)) // L
    hi = (base[c] + np.maximum(span, 0) + ebytes[c] - 1) // L
    c_lines = hi - lo + 1

    # Other events: the first and last line of every element.
    s = np.flatnonzero(~contig & ~indexed & (elems > 0))
    owner, rank = _ragged(elems[s])
    s_ev = s[owner]
    s_addr = base[s_ev] + rank * stride[s_ev]
    x = np.flatnonzero(indexed)
    offsets: list[tuple[int, ...]] = []
    for i in x.tolist():
        offs = mems[i].offsets
        if offs is None:
            raise ValueError("indexed memory access without offsets")
        offsets.append(offs)
    x_elems = np.fromiter(map(len, offsets), dtype=np.int64, count=x.size)
    x_ev = x[np.repeat(np.arange(x.size), x_elems)]
    x_addr = base[x_ev] + np.fromiter(
        chain.from_iterable(offsets), dtype=np.int64, count=int(x_elems.sum()))
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
    return out, np.repeat(~np.array(is_load_t, dtype=bool), count)


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
