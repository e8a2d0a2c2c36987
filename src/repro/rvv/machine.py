"""The functional vector machine and its RVV 1.0 intrinsics surface.

:class:`RvvMachine` plays the role Spike plays in the paper: it executes
vectorized kernels instruction by instruction with full architectural
semantics (``vsetvl`` strip-mining, tail-undisturbed element handling,
slide/gather register movement, unit/strided/indexed memory accesses) so
their output can be validated against reference NumPy convolutions.
Every executed intrinsic is reported to a :class:`~repro.rvv.tracer.Tracer`,
which is what the timing model and the analytical stream models are
validated against.

The intrinsics exposed here follow the RVV 1.0 / EPI-builtins vocabulary
used by the paper (``vle32``/``vlse32``/``vluxei32``/``vslideup``/
``vfmacc``...), restricted to SEW=32 — the convolutions are fp32, and
index vectors are uint32 byte offsets exactly as ``vluxei32`` defines.

The shared execution engine lives in :class:`VectorEngine`; the ARM-SVE
flavor in :mod:`repro.sve` reuses it with SVE's instruction vocabulary,
which is how the paper's RVV-vs-SVE parity experiment is reproduced.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IllegalInstructionError, VectorStateError
from repro.isa import vsetvl as isa_vsetvl
from repro.isa.encoding import VType, validate_vlen
from repro.rvv.memory import Memory
from repro.rvv.prims import PRIMS, retires
from repro.rvv.registers import RegAlloc, VRegFile
from repro.rvv.tracer import Tracer

_SET_VL = PRIMS["_set_vl"]

_F32, _U32, _I32 = np.float32, np.uint32, np.int32


class VectorEngine:
    """Shared state and element-level semantics for both ISA flavors.

    Args:
        vlen_bits: hardware vector length (VLEN) in bits.
        memory: the simulated memory; a private one is created if omitted.
        tracer: instruction tracer; a counting-only one is created if
            omitted.
        strict: when True, the engine raises :class:`VectorStateError`
            at execution time on RVV 1.0 register-group overlap
            violations (vslideup/vrgather destination overlapping a
            source group).  The default is permissive — the engine
            computes through the overlap with a source snapshot so
            existing traces keep replaying — and the overlap pass of
            :mod:`repro.analysis` flags the violation statically.
    """

    def __init__(
        self,
        vlen_bits: int = 512,
        memory: Memory | None = None,
        tracer: Tracer | None = None,
        strict: bool = False,
    ) -> None:
        validate_vlen(vlen_bits)
        self.vlen_bits = vlen_bits
        self.vlen_bytes = vlen_bits // 8
        self.memory = memory if memory is not None else Memory()
        self.tracer = tracer if tracer is not None else Tracer(capture=False)
        self.strict = strict
        self.regs = VRegFile(vlen_bits)
        self._reg_views = self.regs.views
        self.alloc = RegAlloc()
        self.vtype = VType(sew=32, lmul=1)
        self.vl = 0
        self._configured = False
        # Scratch backing for load_index_u32.  Allocated lazily (an
        # eager allocation here would shift every subsequent simulated
        # address) but sized at the architectural maximum, so the bump
        # allocator — which cannot free — is asked exactly once.
        self._index_scratch = 0
        self._index_scratch_cap = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def vlmax(self) -> int:
        """Elements per register group at the current vtype."""
        return (self.vlen_bits * self.vtype.lmul) // self.vtype.sew

    def _require_vl(self) -> int:
        if not self._configured:
            raise VectorStateError(
                "vector operation before vsetvl: configure vl first"
            )
        return self.vl

    def _set_vl(self, avl: int, sew: int, lmul: int) -> int:
        self.vtype = VType(sew=sew, lmul=lmul)
        self.vl = self._grant(avl)
        self._configured = True
        self.tracer.configure(_SET_VL, self.vl, sew, lmul, avl)
        return self.vl

    def _grant(self, avl: int) -> int:
        """The ``vl`` granted for ``avl`` under the current vtype."""
        return isa_vsetvl(avl, self.vlen_bits, self.vtype.sew, self.vtype.lmul)

    def _group_overlaps(self, a: int, b: int) -> bool:
        """True when register groups starting at ``a`` and ``b`` share
        any of the ``lmul`` architectural registers each occupies."""
        m = self.vtype.lmul
        return a < b + m and b < a + m

    # ------------------------------------------------------------------
    # Register views (fp32 / int32 over the active group)
    # ------------------------------------------------------------------
    # These read the register file's view cache directly and fall back
    # to it (which validates the group) only on a miss.
    def _f32(self, idx: int) -> np.ndarray:
        v = self._reg_views.get((_F32, idx, self.vtype.lmul))
        return v if v is not None else self.regs.f32(idx, self.vtype.lmul)

    def _u32(self, idx: int) -> np.ndarray:
        v = self._reg_views.get((_U32, idx, self.vtype.lmul))
        return v if v is not None else self.regs.u32(idx, self.vtype.lmul)

    def _i32(self, idx: int) -> np.ndarray:
        v = self._reg_views.get((_I32, idx, self.vtype.lmul))
        return v if v is not None else self.regs.i32(idx, self.vtype.lmul)

    def read_f32(self, idx: int) -> np.ndarray:
        """Debug/test helper: copy of the active fp32 lanes of ``v[idx]``."""
        return self._f32(idx)[: self._require_vl()].copy()

    def write_f32(self, idx: int, values: np.ndarray) -> None:
        """Debug/test helper: set the leading fp32 lanes of ``v[idx]``."""
        arr = np.asarray(values, dtype=np.float32).ravel()
        self._f32(idx)[: arr.size] = arr

    # ------------------------------------------------------------------
    # Memory semantics (shared by both ISAs)
    # ------------------------------------------------------------------
    @retires
    def _ld_unit(self, vd: int, addr: int) -> None:
        vl = self._require_vl()
        self._f32(vd)[:vl] = self.memory.view(addr, vl, np.float32)

    @retires
    def _st_unit(self, vs: int, addr: int) -> None:
        vl = self._require_vl()
        self.memory.view(addr, vl, np.float32)[:] = self._f32(vs)[:vl]

    @retires
    def _ld_strided(self, vd: int, addr: int, stride_bytes: int) -> None:
        vl = self._require_vl()
        self._f32(vd)[:vl] = self.memory.strided_view_f32(addr, vl, stride_bytes)

    @retires
    def _st_strided(self, vs: int, addr: int, stride_bytes: int) -> None:
        vl = self._require_vl()
        self.memory.strided_view_f32(addr, vl, stride_bytes)[:] = self._f32(vs)[:vl]

    @retires
    def _ld_indexed(self, vd: int, base: int, vidx: int) -> np.ndarray:
        vl = self._require_vl()
        offsets = self._u32(vidx)[:vl].astype(np.int64)
        self._f32(vd)[:vl] = self.memory.gather_f32(base, offsets)
        return offsets

    @retires
    def _st_indexed(self, vs: int, base: int, vidx: int) -> np.ndarray:
        vl = self._require_vl()
        offsets = self._u32(vidx)[:vl].astype(np.int64)
        self.memory.scatter_f32(base, offsets, self._f32(vs)[:vl])
        return offsets

    # ------------------------------------------------------------------
    # Arithmetic semantics
    # ------------------------------------------------------------------
    @retires
    def _fma(self, vd: int, vs1: int, vs2: int) -> None:
        """vd[i] += vs1[i] * vs2[i]  (vfmacc.vv)."""
        vl = self._require_vl()
        d = self._f32(vd)
        d[:vl] += self._f32(vs1)[:vl] * self._f32(vs2)[:vl]

    @retires
    def _fma_f(self, vd: int, f: float, vs: int) -> None:
        """vd[i] += f * vs[i]  (vfmacc.vf)."""
        vl = self._require_vl()
        d = self._f32(vd)
        d[:vl] += np.float32(f) * self._f32(vs)[:vl]

    @retires
    def _nfms_f(self, vd: int, f: float, vs: int) -> None:
        """vd[i] -= f * vs[i]  (vfnmsac.vf)."""
        vl = self._require_vl()
        d = self._f32(vd)
        d[:vl] -= np.float32(f) * self._f32(vs)[:vl]

    _ARITH = {
        "add": np.add,
        "sub": np.subtract,
        "mul": np.multiply,
    }

    @retires
    def _arith(self, op: str, vd: int, vs1: int, vs2: int) -> None:
        vl = self._require_vl()
        fn = self._ARITH[op]
        self._f32(vd)[:vl] = fn(self._f32(vs1)[:vl], self._f32(vs2)[:vl])

    @retires
    def _arith_f(self, op: str, vd: int, vs: int, f: float) -> None:
        vl = self._require_vl()
        fn = self._ARITH[op]
        self._f32(vd)[:vl] = fn(self._f32(vs)[:vl], np.float32(f))

    @retires
    def _splat_f(self, vd: int, f: float) -> None:
        vl = self._require_vl()
        self._f32(vd)[:vl] = np.float32(f)

    @retires
    def _mov(self, vd: int, vs: int) -> None:
        vl = self._require_vl()
        self._f32(vd)[:vl] = self._f32(vs)[:vl]

    @retires
    def _iota(self, vd: int) -> None:
        vl = self._require_vl()
        self._u32(vd)[:vl] = np.arange(vl, dtype=np.uint32)

    @retires
    def _iadd_x(self, vd: int, vs: int, x: int) -> None:
        vl = self._require_vl()
        self._u32(vd)[:vl] = self._u32(vs)[:vl] + np.uint32(x)

    @retires
    def _imul_x(self, vd: int, vs: int, x: int) -> None:
        vl = self._require_vl()
        self._u32(vd)[:vl] = self._u32(vs)[:vl] * np.uint32(x)

    @retires
    def _iand_x(self, vd: int, vs: int, x: int) -> None:
        vl = self._require_vl()
        self._u32(vd)[:vl] = self._u32(vs)[:vl] & np.uint32(x)

    @retires
    def _redsum(self, vs: int) -> float:
        vl = self._require_vl()
        return float(np.sum(self._f32(vs)[:vl], dtype=np.float64))

    # ------------------------------------------------------------------
    # Register movement semantics
    # ------------------------------------------------------------------
    @retires
    def _slideup(self, vd: int, vs: int, offset: int) -> None:
        """vd[i] = vs[i - offset] for offset <= i < vl; lower lanes kept.

        RVV 1.0 reserves overlapping source/destination groups for
        ``vslideup`` — the rule that forces the paper's Algorithm 2
        register copies, which is why the slideup tuple-multiplication
        kernel ping-pongs between two registers.  A ``strict`` engine
        raises at execution time; the permissive default computes
        through a source snapshot and leaves detection to the overlap
        pass of :mod:`repro.analysis`.
        """
        vl = self._require_vl()
        if offset < 0:
            raise IllegalInstructionError(f"slide offset must be >= 0, got {offset}")
        d, s = self._f32(vd), self._f32(vs)
        if self._group_overlaps(vd, vs):
            if self.strict:
                raise VectorStateError(
                    f"vslideup v{vd}, v{vs}: overlapping source and "
                    "destination groups are reserved in RVV 1.0"
                )
            s = s[:vl].copy()
        if offset < vl:
            d[offset:vl] = s[: vl - offset]

    @retires
    def _slidedown(self, vd: int, vs: int, offset: int) -> None:
        """vd[i] = vs[i + offset], zero beyond VLMAX."""
        vl = self._require_vl()
        if offset < 0:
            raise IllegalInstructionError(f"slide offset must be >= 0, got {offset}")
        d, s = self._f32(vd), self._f32(vs)
        vmax = self.vlmax
        take = max(0, min(vl, vmax - offset))
        out = np.zeros(vl, dtype=np.float32)
        out[:take] = s[offset : offset + take]
        d[:vl] = out

    @retires
    def _gather_reg(self, vd: int, vs: int, vidx: int) -> None:
        """vd[i] = vs[vidx[i]] (vrgather.vv / SVE TBL); OOB lanes read 0."""
        vl = self._require_vl()
        if self.strict and (self._group_overlaps(vd, vs)
                            or self._group_overlaps(vd, vidx)):
            raise VectorStateError(
                f"vrgather v{vd}, v{vs}, v{vidx}: destination overlapping "
                "a source group is reserved in RVV 1.0"
            )
        idx = self._u32(vidx)[:vl].astype(np.int64)
        src = self._f32(vs)[: self.vlmax].copy()
        out = np.zeros(vl, dtype=np.float32)
        ok = idx < self.vlmax
        out[ok] = src[idx[ok]]
        self._f32(vd)[:vl] = out

    # ------------------------------------------------------------------
    @retires
    def _scalar(self) -> None:
        """One scalar bookkeeping instruction (no vector semantics)."""

    def scalar_ops(self, n: int = 1) -> None:
        """Account ``n`` scalar bookkeeping instructions (optional)."""
        for _ in range(n):
            self._scalar()

    def load_index_u32(self, vd: int, offsets: np.ndarray) -> None:
        """Load precomputed uint32 byte offsets into an index register.

        Models the paper's pattern of materializing an index array in
        memory and loading it (Algorithm 1 lines 5-12 + line 15): the
        index array is staged in a scratch region of simulated memory
        and loaded with the flavor's unit-stride load.
        """
        vl = self._require_vl()
        offs = np.ascontiguousarray(offsets, dtype=np.uint32)
        if offs.size < vl:
            raise VectorStateError(
                f"index array has {offs.size} entries but vl={vl}"
            )
        addr = self._index_scratch_for(vl)
        self.memory.view(addr, vl, np.uint32)[:] = offs[:vl]
        self.vle32(vd, addr)

    def _index_scratch_for(self, vl: int) -> int:
        """The index scratch region, allocated on first use."""
        if self._index_scratch_cap < vl:
            nbytes, cap = self._index_scratch_request()
            self._index_scratch = self.memory.alloc(nbytes, label="index_scratch")
            self._index_scratch_cap = cap
        return self._index_scratch

    def _index_scratch_request(self) -> tuple[int, int]:
        """(bytes to allocate, resulting capacity in entries).

        Sized at the architectural maximum — vlmax at LMUL=8 over 32-bit
        elements, i.e. ``vlen_bits // 4`` entries — so the region is
        never regrown (the bump allocator cannot free, and regrowth
        would leak the previous region).
        """
        return self.vlen_bits, self.vlen_bits // 4

    def vle32(self, vd: int, addr: int) -> None:
        """Unit-stride vector load of fp32 elements."""
        self._ld_unit(vd, addr)


class RvvMachine(VectorEngine):
    """RISC-V "V" extension v1.0 intrinsics, EPI-builtins style.

    All operations act on the first ``vl`` elements as granted by the
    most recent :meth:`setvl`, with tail elements left undisturbed.
    Register operands are architectural indices 0..31, normally obtained
    from :attr:`alloc` (a :class:`~repro.rvv.registers.RegAlloc`).
    """

    # --- configuration -------------------------------------------------
    def setvl(self, avl: int, sew: int = 32, lmul: int = 1) -> int:
        """``vsetvli``: request ``avl`` elements, return granted ``vl``."""
        return self._set_vl(avl, sew, lmul)

    # --- memory ---------------------------------------------------------
    def vse32(self, vs: int, addr: int) -> None:
        """Unit-stride vector store of fp32 elements."""
        self._st_unit(vs, addr)

    def vlse32(self, vd: int, addr: int, stride_bytes: int) -> None:
        """Strided vector load (byte stride, as ``vlse32.v``)."""
        self._ld_strided(vd, addr, stride_bytes)

    def vsse32(self, vs: int, addr: int, stride_bytes: int) -> None:
        """Strided vector store (byte stride, as ``vsse32.v``)."""
        self._st_strided(vs, addr, stride_bytes)

    def vluxei32(self, vd: int, base: int, vidx: int) -> None:
        """Indexed (gather) load: offsets are uint32 *byte* offsets."""
        self._ld_indexed(vd, base, vidx)

    def vsuxei32(self, vs: int, base: int, vidx: int) -> None:
        """Indexed (scatter) store: offsets are uint32 *byte* offsets."""
        self._st_indexed(vs, base, vidx)

    # --- fp arithmetic ---------------------------------------------------
    def vfmacc_vv(self, vd: int, vs1: int, vs2: int) -> None:
        """``vd += vs1 * vs2`` element-wise."""
        self._fma(vd, vs1, vs2)

    def vfmacc_vf(self, vd: int, f: float, vs: int) -> None:
        """``vd += f * vs``."""
        self._fma_f(vd, f, vs)

    def vfnmsac_vf(self, vd: int, f: float, vs: int) -> None:
        """``vd -= f * vs``."""
        self._nfms_f(vd, f, vs)

    def vfadd_vv(self, vd: int, vs1: int, vs2: int) -> None:
        self._arith("add", vd, vs1, vs2)

    def vfsub_vv(self, vd: int, vs1: int, vs2: int) -> None:
        self._arith("sub", vd, vs1, vs2)

    def vfmul_vv(self, vd: int, vs1: int, vs2: int) -> None:
        self._arith("mul", vd, vs1, vs2)

    def vfadd_vf(self, vd: int, vs: int, f: float) -> None:
        self._arith_f("add", vd, vs, f)

    def vfmul_vf(self, vd: int, vs: int, f: float) -> None:
        self._arith_f("mul", vd, vs, f)

    def vfredusum(self, vs: int) -> float:
        """Ordered sum reduction of the active elements."""
        return self._redsum(vs)

    # --- moves / index construction --------------------------------------
    def vfmv_v_f(self, vd: int, f: float) -> None:
        """Splat a scalar float into every active lane."""
        self._splat_f(vd, f)

    def vmv_v_v(self, vd: int, vs: int) -> None:
        """Whole-lane register copy over the active elements."""
        self._mov(vd, vs)

    def vid_v(self, vd: int) -> None:
        """Write lane indices 0..vl-1 (uint32) into ``vd``."""
        self._iota(vd)

    def vadd_vx(self, vd: int, vs: int, x: int) -> None:
        self._iadd_x(vd, vs, x)

    def vmul_vx(self, vd: int, vs: int, x: int) -> None:
        self._imul_x(vd, vs, x)

    def vand_vx(self, vd: int, vs: int, x: int) -> None:
        self._iand_x(vd, vs, x)

    # --- register movement ------------------------------------------------
    def vslideup_vx(self, vd: int, vs: int, offset: int) -> None:
        self._slideup(vd, vs, offset)

    def vslidedown_vx(self, vd: int, vs: int, offset: int) -> None:
        self._slidedown(vd, vs, offset)

    def vrgather_vv(self, vd: int, vs: int, vidx: int) -> None:
        self._gather_reg(vd, vs, vidx)
