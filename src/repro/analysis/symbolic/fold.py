"""Folded register-shaped passes over the compact symbolic trace.

The concrete register passes (:mod:`repro.analysis.passes.overlap`,
``vtype``, ``defuse``) walk one materialized instruction at a time.  On
an interned :class:`~repro.rvv.tracer.Tracer` that walk is redundant: every occurrence
of an interned signature has identical registers, configuration and
LMUL, so a per-*signature* check reaches the same verdict as a
per-*instruction* check — and a clean kernel is judged in O(#signatures)
instead of O(#instructions).

Equivalence with the concrete pipeline (pass order, message text,
finding order, dedup counts) is load-bearing — the differential tests
compare these passes against ``analyze_program`` on the materialized
program, golden-bad fragments included:

- **overlap / vtype** are per-instruction stateless, so they fold
  completely.  For a signature without per-occurrence payload the
  disassembly is constant, and one :class:`Finding` with
  ``count=N`` reproduces exactly what concrete-then-dedupe yields;
  memory signatures (whose bases vary per occurrence) emit
  per-occurrence findings and let the final dedup merge what is
  mergeable, again exactly like the concrete path.
- **defuse** is a sequential dataflow scan, folded differently: the
  signature-id stream of a strip-mined loop is *periodic* (varying
  base addresses live in payloads, not in the stream), so after one
  silent, state-stable trial period the remaining repetitions are
  skipped wholesale (the period boundary found with one vectorized
  comparison).  Any emission or state change falls back to the exact
  scan, so kernels with real def-use bugs get exact positions.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.findings import Finding, Severity, dedupe_findings
from repro.analysis.passes import defuse as _defuse
from repro.analysis.passes import overlap as _overlap
from repro.analysis.passes import vtype as _vtype
from repro.isa import OpClass
from repro.rvv.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .audit import Regime

__all__ = ["analyze_strace", "check_overlap", "check_vtype", "check_defuse"]

_SLIDEUP_LIKE = _overlap._SLIDEUP_LIKE
_GATHER_LIKE = _overlap._GATHER_LIKE


def _emit(findings: list[Finding], strace: Tracer, sid: int, count: int,
          pass_id: str, severity: Severity, message: str) -> None:
    """Emit one folded finding, occurrence-expanded for memory sigs.

    Non-memory signatures have position-independent disassembly, so a
    single finding with ``count`` occurrences is exactly what the
    concrete pass plus dedup produces.  Memory signatures interpolate
    the per-occurrence base address into their disassembly; emit each
    occurrence and let the final dedup merge the ones that coincide.
    """
    s = strace.sigs[sid]
    if s.payload is not None and not s.is_config:
        for pos in strace.occurrences(sid):
            p = int(pos)
            findings.append(Finding(
                pass_id, severity, p, message,
                strace.instr_at(p).disasm(), None))
    else:
        findings.append(Finding(
            pass_id, severity, s.first, message,
            strace.instr_at(s.first).disasm(), None, count=count))


# ----------------------------------------------------------------------
# Pass 1 — register-group overlap, folded per signature
# ----------------------------------------------------------------------
def check_overlap(strace: Tracer) -> list[Finding]:
    findings: list[Finding] = []
    for s in strace.live_sigs():
        sid, c = s.sid, s.count
        ops = s.ops
        if ops is None or s.opclass is OpClass.SCALAR:
            continue
        lmul = s.lmul
        if lmul > 1:
            regs = list(ops.vs)
            if ops.vd is not None:
                regs.append(ops.vd)
            if ops.vidx is not None:
                regs.append(ops.vidx)
            for reg in regs:
                if reg % lmul:
                    _emit(findings, strace, sid, c,
                          _overlap.PASS_ID, Severity.ERROR,
                          f"v{reg} is not aligned to the LMUL={lmul} register "
                          "group size (groups must start at multiples of "
                          "LMUL)")
        if ops.vd is None:
            continue
        hazards: list[int] = []
        if ops.mnemonic in _SLIDEUP_LIKE:
            hazards = list(ops.vs)
        elif ops.mnemonic in _GATHER_LIKE:
            hazards = list(ops.vs)
            if ops.vidx is not None:
                hazards.append(ops.vidx)
        for src in hazards:
            if ops.vd < src + lmul and src < ops.vd + lmul:
                _emit(findings, strace, sid, c,
                      _overlap.PASS_ID, Severity.ERROR,
                      f"{ops.mnemonic}: destination group v{ops.vd} overlaps "
                      f"source group v{src} — reserved in RVV 1.0 (the rule "
                      "behind Algorithm 2's register copies)")
    return findings


# ----------------------------------------------------------------------
# Pass 2 — vtype configuration dataflow, folded per signature
# ----------------------------------------------------------------------
def check_vtype(strace: Tracer) -> list[Finding]:
    findings: list[Finding] = []
    for s in strace.live_sigs():
        sid, c = s.sid, s.count
        if s.opclass is OpClass.SCALAR or s.is_config:
            continue
        if s.vl is None:
            _emit(findings, strace, sid, c, _vtype.PASS_ID, Severity.ERROR,
                  "vector instruction executed before any vsetvl/whilelt: "
                  "vtype is never-set")
            continue
        if s.elems is not s.vl and s.elems != s.vl:
            _emit(findings, strace, sid, c, _vtype.PASS_ID, Severity.ERROR,
                  f"instruction retired {s.elems} elements but the active "
                  f"configuration granted vl={s.vl} — stale vtype")
        if s.sew is not None and s.eew != s.sew:
            _emit(findings, strace, sid, c, _vtype.PASS_ID, Severity.ERROR,
                  f"instruction EEW={s.eew} under active SEW={s.sew}")
        if s.cfg_lmul is not None and s.lmul != s.cfg_lmul:
            _emit(findings, strace, sid, c, _vtype.PASS_ID, Severity.ERROR,
                  f"instruction LMUL={s.lmul} under active "
                  f"LMUL={s.cfg_lmul}")
        if s.kind is not None and s.sew is not None and s.eew != s.sew:
            # Materialized memory descriptors carry sew = the sig's EEW.
            _emit(findings, strace, sid, c, _vtype.PASS_ID, Severity.ERROR,
                  f"memory access recorded SEW={s.eew} under active "
                  f"SEW={s.sew} (indexed EEW inconsistency)")
    return findings


# ----------------------------------------------------------------------
# Pass 3 — def-use dataflow with periodic loop skipping
# ----------------------------------------------------------------------
def check_defuse(strace: Tracer) -> list[Finding]:
    findings: list[Finding] = []
    sigs = strace.sigs
    ids = strace.sig_ids
    n = len(ids)
    # Per-sig (uses, defs) unit tuples; False marks a skipped sig.
    pre: list = [None] * len(sigs)

    def _pre(sid: int):
        s = sigs[sid]
        ops = s.ops
        if ops is None or s.opclass is OpClass.SCALAR or s.is_config:
            pre[sid] = False
            return False
        lmul = s.lmul
        uses: set[int] = set()
        defs: set[int] = set()
        for r in ops.vs:
            uses.update(range(r, r + lmul))
        if ops.vidx is not None:
            uses.update(range(ops.vidx, ops.vidx + lmul))
        if ops.vd is not None:
            defs.update(range(ops.vd, ops.vd + lmul))
            if ops.merges:
                uses.update(range(ops.vd, ops.vd + lmul))
        t = (tuple(sorted(uses)), tuple(sorted(defs)))
        pre[sid] = t
        return t

    defined: set[int] = set()
    # unit -> [def position, def sig id, used since that def]
    live: dict[int, list] = {}
    last: dict[int, int] = {}

    def _step(j: int) -> None:
        sid = ids[j]
        last[sid] = j
        ud = pre[sid]
        if ud is None:
            ud = _pre(sid)
        if ud is False:
            return
        uses, defs = ud
        flagged = False
        for u in uses:
            if u not in defined:
                if not flagged:
                    findings.append(Finding(
                        _defuse.PASS_ID, Severity.ERROR, j,
                        f"v{u} is read but no traced instruction has written "
                        "it — uninitialized on real hardware",
                        strace.instr_at(j).disasm(), None))
                    flagged = True
                defined.add(u)
            e = live.get(u)
            if e is not None:
                e[2] = True
        for u in defs:
            e = live.get(u)
            if e is not None and not e[2]:
                findings.append(Finding(
                    _defuse.PASS_ID, Severity.WARNING, e[0],
                    f"v{u} defined here is overwritten at instruction {j} "
                    "without ever being read — dead def",
                    strace.instr_at(e[0]).disasm(), None))
            defined.add(u)
            live[u] = [j, sid, False]

    def _state_key():
        return (frozenset(defined),
                frozenset((u, e[1], e[2]) for u, e in live.items()))

    arr: np.ndarray | None = None
    i = 0
    next_attempt = 0
    while i < n:
        sid = ids[i]
        p = i - last[sid] if sid in last else 0
        periodic = False
        if 0 < p <= n - i and i >= next_attempt:
            q = 8 if p > 8 else p
            if ids[i:i + q] == ids[i - p:i - p + q]:
                periodic = ids[i:i + p] == ids[i - p:i]
        if not periodic:
            _step(i)
            i += 1
            continue
        # One exact trial period; skip the rest only if it was silent
        # and left the dataflow state (modulo def positions) unchanged.
        next_attempt = i + p
        end = i + p
        snap = len(findings)
        key_before = _state_key()
        for j in range(i, end):
            _step(j)
        if len(findings) == snap and _state_key() == key_before:
            if arr is None:
                arr = strace.ids_array()
            neq = arr[end:] != arr[end - p:n - p]
            nz = np.nonzero(neq)[0]
            run_end = end + int(nz[0]) if nz.size else n
            k = (run_end - i) // p - 1  # full periods beyond the trial
            if k > 0:
                kp = k * p
                # The state after k more identical periods differs only
                # in def positions of entries touched this period; the
                # last occurrences of the period's sigs advance the same
                # way.  Shift both so later findings cite exact indices.
                for e in live.values():
                    if e[0] >= i:
                        e[0] += kp
                for s2 in set(ids[i:end]):
                    if last.get(s2, -1) >= i:
                        last[s2] += kp
                i = end + kp
                next_attempt = i
                continue
        i = end
    return findings


def analyze_strace(regime: "Regime") -> list[Finding]:
    """The register-shaped pipeline (overlap, vtype, defuse), folded.

    Equivalent to running ``analyze_program(passes=(overlap, vtype,
    defuse))`` over a concrete lift at *every* VLEN of the regime —
    same findings, same ``vlen_bits`` stamps, same dedup counts —
    without materializing a single program.  One fold serves the whole
    regime; the verdict is then replicated per covered VLEN exactly as
    the concrete per-program passes would have reported it.
    """
    st = regime.strace
    base = check_overlap(st) + check_vtype(st) + check_defuse(st)
    findings = [replace(f, vlen_bits=vlen)
                for vlen in regime.vlens for f in base]
    return dedupe_findings(findings)
