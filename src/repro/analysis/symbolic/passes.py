"""Symbolic variants of the extent- and VLEN-sensitive passes.

The register-shaped passes run folded over the compact trace
(:mod:`.fold`).  The two passes below need the VLEN domain made
explicit:

- :func:`check_memsafety` proves the memory-safety property of
  :mod:`repro.analysis.passes.memsafety` at **every** VLEN of a regime.
  Accesses are batched per interned signature: one (occurrences ×
  points) base matrix per signature, one vectorized span-in-extent
  check per domain point.  Only a span that is not contained in a
  single extent falls back to the concrete pass's exact per-element
  check, reproducing its messages verbatim (a violation names the VLEN
  it occurs at).
- :func:`check_vla` subsumes the sampled trace-diffing VLA pass: max
  grants and compute/store element totals are read off the regimes'
  compact traces at every admissible VLEN at once (an O(#signatures)
  fold per point), then fed through the same pinned-vector-length and
  fixed-work criteria (and the same message wording) as the concrete
  pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.analysis.findings import Finding, Severity
from repro.analysis.passes import memsafety as _memsafety
from repro.analysis.passes import vla as _vla
from repro.isa import IS_STORE, OpClass
from repro.isa.encoding import vsetvl
from repro.rvv.tracer import Sig

from .core import SymInt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .audit import Regime

PASS_MEMSAFETY = _memsafety.PASS_ID
PASS_VLA = _vla.PASS_ID


# ----------------------------------------------------------------------
# Memory safety, batched per signature, checked per domain point
# ----------------------------------------------------------------------
def check_memsafety(regime: "Regime") -> list[Finding]:
    strace, ctx, extents = regime.strace, regime.ctx, regime.extents
    if not extents:
        return []
    pis = regime.point_indices()
    npts = len(pis)
    mem_sigs = [s for s in strace.sigs
                if s.kind is not None and not s.is_config]
    if not mem_sigs:
        return []

    def _vals(x: Any) -> tuple[int, ...]:
        if isinstance(x, SymInt):
            v = x.values
            return tuple(v[p] for p in pis)
        xi = int(x)
        return (xi,) * npts

    # Per-sig occurrence positions and per-point base/elems/stride
    # batches, built once and reused at every domain point.
    batches: list[tuple[Sig, np.ndarray, np.ndarray | None,
                        tuple[int, ...] | None, tuple[int, ...] | None]] = []
    for s in mem_sigs:
        occ = strace.occurrences(s.sid)
        assert s.payload is not None
        if s.kind == "indexed":
            batches.append((s, occ, None, None, None))
            continue
        base_mat = np.empty((len(s.payload), npts), dtype=np.int64)
        for r, b in enumerate(s.payload):
            if isinstance(b, SymInt):
                v = b.values
                for j, p in enumerate(pis):
                    base_mat[r, j] = v[p]
            else:
                base_mat[r, :] = b
        batches.append((s, occ, base_mat, _vals(s.elems), _vals(s.stride)))

    # Index-content footprint bounds, cached per (content, point).
    bound_cache: dict[tuple[int, int], tuple[int, int, int]] = {}

    def _bounds(content: Any, pi: int) -> tuple[int, int, int]:
        key = (id(content), pi)
        out = bound_cache.get(key)
        if out is None:
            offs = content.at(pi)
            if offs.size == 0:
                out = (0, 0, 0)
            else:
                out = (int(offs.min()), int(offs.max()), int(offs.size))
            bound_cache[key] = out
        return out

    findings: list[Finding] = []
    for j, pi in enumerate(pis):
        vlen = ctx.points[pi][0]
        order = sorted(range(len(extents)),
                       key=lambda k: ctx.value_at(extents[k].base, pi))
        ext = [extents[k] for k in order]
        ebases = np.array([ctx.value_at(e.base, pi) for e in ext],
                          dtype=np.int64)
        eends = np.array([ctx.value_at(e.base, pi) + ctx.value_at(e.size, pi)
                          for e in ext], dtype=np.int64)

        # Fast path: a [lo, hi) span fully inside one extent implies
        # every element of the access is inside it.
        lo_parts: list[np.ndarray] = []
        hi_parts: list[np.ndarray] = []
        # Row bookkeeping so a failed span maps back to (batch, row).
        who: list[tuple[int, np.ndarray, int]] = []  # (batch idx, rows, row0)
        rows = 0
        for bi, (s, occ, base_mat, ev, sv) in enumerate(batches):
            if base_mat is not None:
                assert ev is not None and sv is not None
                n = ev[j]
                if n <= 0:
                    continue
                starts = base_mat[:, j]
                last = starts + (n - 1) * sv[j]
                lo_parts.append(np.minimum(starts, last))
                hi_parts.append(np.maximum(starts, last) + 4)
                who.append((bi, np.arange(len(starts)), rows))
                rows += len(starts)
            else:
                assert s.payload is not None
                los: list[int] = []
                his: list[int] = []
                keep: list[int] = []
                for r, (base, content) in enumerate(s.payload):
                    if content is None:
                        continue  # untracked indices: addresses unknown
                    mn, mx, size = _bounds(content, pi)
                    if size == 0:
                        continue
                    bv = ctx.value_at(base, pi)
                    los.append(bv + mn)
                    his.append(bv + mx + 4)
                    keep.append(r)
                if keep:
                    lo_parts.append(np.array(los, dtype=np.int64))
                    hi_parts.append(np.array(his, dtype=np.int64))
                    who.append((bi, np.array(keep, dtype=np.int64), rows))
                    rows += len(keep)
        if not rows:
            continue
        lo_arr = np.concatenate(lo_parts)
        hi_arr = np.concatenate(hi_parts)
        slot = np.searchsorted(ebases, lo_arr, side="right") - 1
        ok = (slot >= 0) & (hi_arr <= eends[np.maximum(slot, 0)])
        if bool(ok.all()):
            continue

        # Exact per-element fallback, in instruction order (matching
        # the concrete pass's messages element for element).
        suspects: list[tuple[int, int, int]] = []  # (position, batch, row)
        flat = np.nonzero(~ok)[0]
        for bi, occ_rows, row0 in who:
            occ = batches[bi][1]
            sel = flat[(flat >= row0) & (flat < row0 + len(occ_rows))]
            for f in sel:
                r = int(occ_rows[int(f) - row0])
                suspects.append((int(occ[r]), bi, r))
        for pos, bi, r in sorted(suspects):
            s, occ, base_mat, ev, sv = batches[bi]
            assert s.payload is not None
            if s.kind == "indexed":
                base, content = s.payload[r]
                addrs = ctx.value_at(base, pi) + content.at(pi)
            else:
                assert base_mat is not None and ev is not None and sv is not None
                addrs = (int(base_mat[r, j])
                         + np.arange(ev[j], dtype=np.int64) * sv[j])
            if addrs.size == 0:
                continue
            slot = np.searchsorted(ebases, addrs, side="right") - 1
            ok = (slot >= 0) & (addrs + 4 <= eends[np.maximum(slot, 0)])
            if bool(ok.all()):
                continue
            bad = int(np.argmin(ok))
            addr = int(addrs[bad])
            kind = "load" if s.is_load else "store"
            sl = int(slot[bad])
            near = ext[sl].label if sl >= 0 else None
            hint = f" (past extent {near!r})" if near else ""
            findings.append(Finding(
                PASS_MEMSAFETY, Severity.ERROR, pos,
                f"element {bad} of this {kind} touches {addr:#x}, which is "
                f"outside every declared buffer extent{hint}",
                strace.instr_at(pos).disasm(), vlen,
            ))
    return findings


# ----------------------------------------------------------------------
# VLA portability, across all regimes at once
# ----------------------------------------------------------------------
_COMPUTE = _vla._COMPUTE


def check_vla(regimes: list["Regime"], fixed_work: bool = True) -> list[Finding]:
    where: dict[int, tuple["Regime", int]] = {}
    for rg in regimes:
        for v, pi in zip(rg.vlens, rg.point_indices()):
            where[v] = (rg, pi)
    vlens = sorted(where)
    if len(vlens) < 2:
        return []
    findings: list[Finding] = []

    max_grants = {v: where[v][0].strace.max_grant_at(where[v][1])
                  for v in vlens}
    grants = set(max_grants.values())
    vlmaxes = {v: vsetvl(1 << 30, v, 32, 1) for v in vlens}
    if (len(grants) == 1 and len(set(vlmaxes.values())) > 1
            and max_grants[vlens[0]] == vlmaxes[vlens[0]]
            and max_grants[vlens[0]] > 0):
        pinned = max_grants[vlens[0]]
        rg, pi = where[vlens[-1]]
        idx, snippet = -1, ""
        st = rg.strace
        for i, sid in enumerate(st.sig_ids):
            s = st.sigs[sid]
            if s.is_config:
                e = s.elems
                v = e.values[pi] if isinstance(e, SymInt) else int(e)
                if v == pinned:
                    idx, snippet = i, st.instr_at(i).disasm()
                    break
        findings.append(Finding(
            PASS_VLA, Severity.ERROR, idx,
            f"granted vector length is pinned at {pinned} for every VLEN in "
            f"{vlens} although VLMAX grows to {vlmaxes[vlens[-1]]} — "
            "hard-coded vector length instead of vsetvl strip-mining",
            snippet,
        ))

    if fixed_work:
        stats_cache: dict[tuple[int, int], dict[OpClass, Any]] = {}

        def _total(v: int, classes: tuple[OpClass, ...]) -> int:
            rg, pi = where[v]
            key = (id(rg), pi)
            st = stats_cache.get(key)
            if st is None:
                st = stats_cache[key] = rg.strace.stats_at(pi)
            return sum(st[c].elems for c in classes if c in st)

        compute = {v: _total(v, _COMPUTE) for v in vlens}
        if len(set(compute.values())) > 1:
            detail = ", ".join(f"{v}b:{compute[v]}" for v in vlens)
            findings.append(Finding(
                PASS_VLA, Severity.ERROR, -1,
                "total compute elements vary with VLEN on a fixed-size "
                f"problem ({detail}) — work is derived from VLEN outside "
                "vsetvl",
            ))
        stores = {v: _total(v, tuple(IS_STORE)) for v in vlens}
        if len(set(stores.values())) > 1:
            detail = ", ".join(f"{v}b:{stores[v]}" for v in vlens)
            findings.append(Finding(
                PASS_VLA, Severity.ERROR, -1,
                f"total stored elements vary with VLEN ({detail}) — the "
                "kernel's memory footprint is VLEN-dependent",
            ))
    return findings
