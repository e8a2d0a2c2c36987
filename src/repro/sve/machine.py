"""ARM-SVE flavor of the functional vector machine.

The paper validates its RVV results by comparing against the authors'
earlier ARM-SVE port of the same kernels, finding "similar performance
and performance trends".  To reproduce that comparison we provide
:class:`SveMachine`: the same execution engine as
:class:`~repro.rvv.RvvMachine`, but speaking SVE's instruction
vocabulary and exhibiting SVE's ISA differences:

- there is no ``vsetvl``; strip-mining is expressed with ``whilelt``
  predicate generation (accounted as a mask instruction);
- there are no strided loads/stores; strided access is performed with
  gather/scatter plus index setup (SVE's actual limitation);
- in-register data movement uses ``EXT`` (accounted as a slide) and
  ``TBL`` (a permute).

Because the adapter exposes the same method names as
:class:`~repro.rvv.RvvMachine`, every kernel in :mod:`repro.kernels` is
single-source across the two ISAs — the vector-length-agnostic
portability the paper advertises — while the traced instruction mix
differs exactly where the ISAs differ.
"""

from __future__ import annotations

import numpy as np

from repro.errors import VectorStateError
from repro.isa.encoding import VType
from repro.rvv.machine import VectorEngine
from repro.rvv.prims import PRIMS, retires

_WHILELT = PRIMS["whilelt"]


class SveMachine(VectorEngine):
    """ARM Scalable Vector Extension functional machine.

    SVE implementations fix the vector length between 128 and 2048 bits;
    we deliberately accept the same range as the RVV machine so the
    co-design sweep can compare both ISAs at every simulated length, as
    the paper's gem5 setup does.
    """

    # --- native SVE surface ------------------------------------------------
    def whilelt(self, i: int, n: int) -> int:
        """Predicate generation: active lanes = min(n - i, VLMAX).

        Returns the number of active lanes, which the engine stores as
        the granted vector length (a contiguous predicate; none of the
        paper's kernels need sparse predicates).
        """
        if i > n:
            raise VectorStateError(f"whilelt with i={i} > n={n}")
        self.vtype = VType(sew=32, lmul=1)
        avl = n - i
        self.vl = self._grant(avl)
        self._configured = True
        self.tracer.configure(_WHILELT, self.vl, 32, 1, avl)
        return self.vl

    def ld1w(self, vd: int, addr: int) -> None:
        """Contiguous predicated load (``ld1w``)."""
        self._ld_unit(vd, addr, mn="ld1w")

    def st1w(self, vs: int, addr: int) -> None:
        """Contiguous predicated store (``st1w``)."""
        self._st_unit(vs, addr, mn="st1w")

    def ld1w_gather(self, vd: int, base: int, vidx: int) -> None:
        """Gather load with a vector of uint32 byte offsets."""
        self._ld_indexed(vd, base, vidx, mn="ld1w_gather")

    def st1w_scatter(self, vs: int, base: int, vidx: int) -> None:
        """Scatter store with a vector of uint32 byte offsets."""
        self._st_indexed(vs, base, vidx, mn="st1w_scatter")

    def fmla(self, vd: int, vs1: int, vs2: int) -> None:
        """``vd += vs1 * vs2`` (FMLA)."""
        self._fma(vd, vs1, vs2, mn="fmla")

    def fmla_f(self, vd: int, f: float, vs: int) -> None:
        """FMLA against a replicated scalar."""
        self._fma_f(vd, f, vs, mn="fmla")

    def fadd(self, vd: int, vs1: int, vs2: int) -> None:
        self._arith("add", vd, vs1, vs2, mn="fadd")

    def fsub(self, vd: int, vs1: int, vs2: int) -> None:
        self._arith("sub", vd, vs1, vs2, mn="fsub")

    def fmul(self, vd: int, vs1: int, vs2: int) -> None:
        self._arith("mul", vd, vs1, vs2, mn="fmul")

    def dup(self, vd: int, f: float) -> None:
        """Broadcast a scalar to every active lane."""
        self._splat_f(vd, f, mn="dup")

    def tbl(self, vd: int, vs: int, vidx: int) -> None:
        """Table permute (``TBL``): vd[i] = vs[vidx[i]], OOB lanes 0."""
        self._gather_reg(vd, vs, vidx, mn="tbl")

    def ext(self, vd: int, vs: int, offset_elems: int) -> None:
        """``EXT``-style lane shift used to emulate a slide-up."""
        self._slideup(vd, vs, offset_elems, mn="ext")

    @retires
    def index_u32(self, vd: int, start: int, step: int) -> None:
        """``INDEX``: vd[i] = start + i*step (uint32)."""
        vl = self._require_vl()
        self._u32(vd)[:vl] = (
            np.uint32(start) + np.arange(vl, dtype=np.uint32) * np.uint32(step)
        )

    # --- RVV-compatible adapter (single-source kernels) ---------------------
    def setvl(self, avl: int, sew: int = 32, lmul: int = 1) -> int:
        """Strip-mining adapter: maps to ``whilelt`` predicate setup."""
        if sew != 32 or lmul != 1:
            raise VectorStateError("the SVE flavor implements fp32, LMUL=1 kernels")
        return self.whilelt(0, avl)

    def vle32(self, vd: int, addr: int) -> None:
        self.ld1w(vd, addr)

    def vse32(self, vs: int, addr: int) -> None:
        self.st1w(vs, addr)

    def vlse32(self, vd: int, addr: int, stride_bytes: int) -> None:
        """SVE has no strided load: INDEX + gather, two instructions."""
        vl = self._require_vl()
        with self.alloc.scoped(1) as (vidx,):
            self.index_u32(vidx, 0, stride_bytes)
            self.ld1w_gather(vd, addr, vidx)

    def vsse32(self, vs: int, addr: int, stride_bytes: int) -> None:
        """SVE has no strided store: INDEX + scatter, two instructions."""
        with self.alloc.scoped(1) as (vidx,):
            self.index_u32(vidx, 0, stride_bytes)
            self.st1w_scatter(vs, addr, vidx)

    def vluxei32(self, vd: int, base: int, vidx: int) -> None:
        self.ld1w_gather(vd, base, vidx)

    def vsuxei32(self, vs: int, base: int, vidx: int) -> None:
        self.st1w_scatter(vs, base, vidx)

    def vfmacc_vv(self, vd: int, vs1: int, vs2: int) -> None:
        self.fmla(vd, vs1, vs2)

    def vfmacc_vf(self, vd: int, f: float, vs: int) -> None:
        self.fmla_f(vd, f, vs)

    def vfnmsac_vf(self, vd: int, f: float, vs: int) -> None:
        self._nfms_f(vd, f, vs, mn="fnmls")

    def vfadd_vv(self, vd: int, vs1: int, vs2: int) -> None:
        self.fadd(vd, vs1, vs2)

    def vfsub_vv(self, vd: int, vs1: int, vs2: int) -> None:
        self.fsub(vd, vs1, vs2)

    def vfmul_vv(self, vd: int, vs1: int, vs2: int) -> None:
        self.fmul(vd, vs1, vs2)

    def vfadd_vf(self, vd: int, vs: int, f: float) -> None:
        self._arith_f("add", vd, vs, f, mn="fadd")

    def vfmul_vf(self, vd: int, vs: int, f: float) -> None:
        self._arith_f("mul", vd, vs, f, mn="fmul")

    def vfredusum(self, vs: int) -> float:
        return self._redsum(vs, mn="faddv")

    def vfmv_v_f(self, vd: int, f: float) -> None:
        self.dup(vd, f)

    def vmv_v_v(self, vd: int, vs: int) -> None:
        self._mov(vd, vs, mn="mov")

    def vid_v(self, vd: int) -> None:
        self.index_u32(vd, 0, 1)

    def vadd_vx(self, vd: int, vs: int, x: int) -> None:
        self._iadd_x(vd, vs, x, mn="add")

    def vmul_vx(self, vd: int, vs: int, x: int) -> None:
        self._imul_x(vd, vs, x, mn="mul")

    def vand_vx(self, vd: int, vs: int, x: int) -> None:
        self._iand_x(vd, vs, x, mn="and")

    def _index_scratch_request(self) -> tuple[int, int]:
        """SVE sizes the index scratch at one LMUL=1 register of fp32
        lanes: ``4 * VLMAX`` bytes."""
        return 4 * self.vlmax, self.vlmax

    def vslideup_vx(self, vd: int, vs: int, offset: int) -> None:
        """Slide-up adapter: SVE expresses this with ``EXT``."""
        self.ext(vd, vs, offset)

    def vslidedown_vx(self, vd: int, vs: int, offset: int) -> None:
        self._slidedown(vd, vs, offset, mn="ext")

    def vrgather_vv(self, vd: int, vs: int, vidx: int) -> None:
        self.tbl(vd, vs, vidx)
