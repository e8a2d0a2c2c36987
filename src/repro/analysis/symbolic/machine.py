"""Abstract (data-free) machines for the symbolic kernel analyzer.

These classes expose the exact register/vsetvl/memory API of
:class:`~repro.rvv.RvvMachine`, :class:`~repro.rvv.proposed.RvvPlusMachine`
and :class:`~repro.sve.SveMachine` — they *subclass* them, so any
``isinstance`` or capability check a kernel performs keeps working — but
override every execution primitive with a recording-only version:

- no :class:`~repro.rvv.registers.VRegFile` is ever constructed and no
  element data moves (the zero-kernel-executions property the static
  audit advertises; a test pins it by making ``VRegFile.__init__``
  raise);
- VLEN is the symbolic parameter of a :class:`~.core.SymContext`, so
  ``vl`` grants, trip counts, buffer sizes and addresses come out as
  :class:`~.core.SymInt` values — exact at every admissible VLEN of the
  active regime at once;
- memory is an :class:`AbstractMemory`: the same bump allocator as
  :class:`~repro.rvv.Memory` evaluated pointwise, handing out symbolic
  addresses and recording symbolic extents, but backed by no bytes.

Recording goes to the same signature-interned
:class:`~repro.rvv.tracer.Tracer` the concrete machines use, through the
same primitive declarations (:mod:`repro.rvv.prims`): each signature is
interned once and each dynamic op appends one integer, with only the
genuinely varying data (memory bases, AVLs, index contents) kept per
occurrence.  Lifting the trace gives a
:class:`~repro.analysis.ir.LiftedProgram` that is *bit-identical*
(mnemonics, registers, grants, addresses, ``seq`` stamps) to lifting a
concrete capture trace at any concrete VLEN — the equivalence and
cost-reconcile tests enforce this.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import (
    AlignmentError,
    AllocationError,
    IllegalInstructionError,
    VectorStateError,
)
from repro.isa.encoding import VType
from repro.kernels.common import QUAD
from repro.rvv.machine import RvvMachine
from repro.rvv.memory import LINE_BYTES, Extent
from repro.rvv.prims import retires
from repro.rvv.proposed import RvvPlusMachine
from repro.rvv.registers import RegAlloc
from repro.rvv.tracer import SymMemAccess, Tracer
from repro.sve.machine import SveMachine

from .core import IntLike, SymContext, SymbolicError

__all__ = [
    "AbstractMemory",
    "AbstractRvvMachine",
    "AbstractRvvPlusMachine",
    "AbstractSveMachine",
    "SymMemAccess",
    "ABSTRACT_FLAVORS",
]


class IndexContent:
    """Abstract content of an index (uint32 offset) register.

    Two shapes cover everything the kernels do: a concrete offset array
    loaded from memory (``load_index_u32``) truncated to the grant, and
    an affine lane sequence ``start + i*step`` (``vid.v``/``INDEX``)
    possibly transformed by ``vadd.vx``/``vmul.vx``/``vand.vx``.
    ``at(point)`` materializes the byte offsets for one domain point.
    """

    __slots__ = ("ctx", "kind", "arr", "start", "step", "mask", "vl")

    def __init__(self, ctx: SymContext, kind: str, vl: IntLike, *,
                 arr: np.ndarray | None = None, start: int = 0,
                 step: int = 1, mask: int | None = None) -> None:
        self.ctx = ctx
        self.kind = kind  # "arr" | "lin"
        self.vl = vl
        self.arr = arr
        self.start = start
        self.step = step
        self.mask = mask

    def at(self, point: int) -> np.ndarray:
        n = self.ctx.value_at(self.vl, point)
        if self.kind == "arr":
            assert self.arr is not None
            return self.arr[:n]
        out = self.start + np.arange(n, dtype=np.int64) * self.step
        if self.mask is not None:
            out &= self.mask
        return out

    def map_lin(self, fn_start: Callable[[int], int],
                fn_step: Callable[[int], int]) -> "IndexContent | None":
        """Transform an affine sequence; None when not representable."""
        if self.kind != "lin" or self.mask is not None:
            return None
        return IndexContent(self.ctx, "lin", self.vl,
                            start=fn_start(self.start),
                            step=fn_step(self.step))


class AbstractMemory:
    """The simulator's bump allocator, evaluated pointwise — no bytes.

    Mirrors :class:`repro.rvv.Memory` address-for-address: same base,
    same alignment rounding, same out-of-memory check (enforced at the
    active domain points).  ``view``/``read_f32`` return throwaway zero
    arrays — staged input data cannot influence the traced instruction
    stream, only its addresses can, and those are symbolic.
    """

    def __init__(self, ctx: SymContext, size_bytes: int = 1 << 26,
                 base: int = 1 << 12) -> None:
        if size_bytes <= 0:
            raise AllocationError(
                f"memory size must be positive, got {size_bytes}")
        self.ctx = ctx
        self.size = int(size_bytes)
        self.base = int(base)
        self._brk: IntLike = self.base
        self._allocations: list[tuple[IntLike, IntLike]] = []
        self._labels: list[str | None] = []

    # -- allocation ----------------------------------------------------
    def alloc(self, nbytes: IntLike, align: int = LINE_BYTES,
              label: str | None = None) -> IntLike:
        ctx = self.ctx
        if ctx.exists(lambda v: v < 0, nbytes):
            raise AllocationError(
                f"allocation size must be non-negative, got {nbytes}")
        if align <= 0 or (align & (align - 1)) != 0:
            raise AlignmentError(
                f"alignment must be a positive power of two, got {align}")
        addr = ctx.pointwise(
            lambda b: (b + align - 1) & ~(align - 1), self._brk)
        end = self.base + self.size
        limit = ctx.pointwise(lambda a, n: a + n, addr, nbytes)
        if ctx.exists(lambda v: v > end, limit):
            raise AllocationError(
                f"out of simulated memory: need {nbytes} bytes at {addr}, "
                f"heap ends at {end:#x}")
        self._brk = limit
        self._allocations.append((addr, nbytes))
        self._labels.append(label)
        return addr

    def alloc_f32(self, nelems: IntLike, align: int = LINE_BYTES,
                  label: str | None = None) -> IntLike:
        return self.alloc(4 * nelems, align, label=label)

    @property
    def allocations(self) -> tuple[Extent, ...]:
        """Labeled extents with (possibly) symbolic base and size."""
        return tuple(
            Extent(label, addr, nbytes)  # type: ignore[arg-type]
            for (addr, nbytes), label in zip(self._allocations, self._labels)
        )

    @property
    def bytes_allocated(self) -> IntLike:
        total: IntLike = 0
        for _, n in self._allocations:
            total = total + n  # type: ignore[operator, assignment]
        return total

    # -- data access: sinks and zero sources ---------------------------
    def view(self, addr: IntLike, count: IntLike,
             dtype: np.dtype | type = np.float32) -> np.ndarray:
        dt = np.dtype(dtype)
        ctx = self.ctx
        if ctx.exists(lambda a: a % dt.itemsize != 0, addr):
            raise AlignmentError(
                f"address {addr} is not aligned to element size {dt.itemsize}")
        return np.zeros(ctx.witness_of(count), dtype=dt)

    def read_f32(self, addr: IntLike, count: IntLike) -> np.ndarray:
        return np.zeros(self.ctx.witness_of(count), dtype=np.float32)

    def write_f32(self, addr: IntLike, values: np.ndarray) -> None:
        return None

    def fill_noise(self, addr: IntLike, nelems: IntLike,
                   rng: np.random.Generator) -> None:
        """Staging protocol: a no-op — abstract buffers hold no data."""
        return None


class AbstractCore:
    """Data-free override of every VectorEngine execution primitive.

    Mixed in *before* a concrete machine class so the concrete mnemonic
    surface (``vle32``/``fmla``/``vrep4_vi``/...) is inherited while all
    data movement funnels into these overrides.  An override keeps only
    the symbolic work — the vl grant and the index-register contents —
    and is decorated with :func:`~repro.rvv.prims.retires` like its
    concrete counterpart, so both record the same signatures.
    """

    def __init__(self, ctx: SymContext,
                 memory: AbstractMemory | None = None) -> None:
        self.ctx = ctx
        self.vlen_bits = ctx.symbol("VLEN")
        self.vlen_bytes = self.vlen_bits // 8
        self.memory = memory if memory is not None else AbstractMemory(ctx)
        self.tracer = Tracer(capture=True)
        self.strict = False
        self.alloc = RegAlloc()
        self.vtype = VType(sew=32, lmul=1)
        self.vl: IntLike = 0
        self._configured = False
        self._index_scratch: IntLike = 0
        self._index_scratch_cap: IntLike = 0
        self._index_contents: dict[int, IndexContent | None] = {}

    # -- the zero-execution guarantee ----------------------------------
    @property
    def regs(self) -> Any:
        raise SymbolicError(
            "abstract machines have no register file; a code path tried "
            "to touch element data during symbolic analysis")

    def _f32(self, idx: int) -> np.ndarray:
        raise SymbolicError("abstract machines cannot read register data")

    _u32 = _f32
    _i32 = _f32
    read_f32 = _f32  # type: ignore[assignment]

    def write_f32(self, idx: int, values: np.ndarray) -> None:
        raise SymbolicError("abstract machines cannot write register data")

    # -- configuration -------------------------------------------------
    def _grant(self, avl: IntLike) -> IntLike:
        if self.ctx.exists(lambda v: v < 0, avl):
            raise VectorStateError(f"AVL must be non-negative, got {avl}")
        return self.ctx.pointwise_min(avl, self.vlmax)

    # -- index-register content tracking -------------------------------
    def _content(self, reg: int) -> IndexContent | None:
        return self._index_contents.get(reg)

    def _set_content(self, reg: int, content: IndexContent | None) -> None:
        if content is None:
            self._index_contents.pop(reg, None)
        else:
            self._index_contents[reg] = content

    def _clobber(self, vd: int) -> None:
        """``vd`` is written with data: its index content is unknown."""
        self._require_vl()
        self._index_contents.pop(vd, None)

    # -- memory primitives ---------------------------------------------
    @retires
    def _ld_unit(self, vd: int, addr: IntLike) -> None:
        self._clobber(vd)

    @retires
    def _st_unit(self, vs: int, addr: IntLike) -> None:
        self._require_vl()

    @retires
    def _ld_strided(self, vd: int, addr: IntLike, stride_bytes: IntLike) -> None:
        self._clobber(vd)

    @retires
    def _st_strided(self, vs: int, addr: IntLike, stride_bytes: IntLike) -> None:
        self._require_vl()

    @retires
    def _ld_indexed(self, vd: int, base: IntLike,
                    vidx: int) -> IndexContent | None:
        content = self._content(vidx)
        self._clobber(vd)
        return content

    @retires
    def _st_indexed(self, vs: int, base: IntLike,
                    vidx: int) -> IndexContent | None:
        self._require_vl()
        return self._content(vidx)

    # -- arithmetic primitives -----------------------------------------
    @retires
    def _fma(self, vd: int, vs1: int, vs2: int) -> None:
        self._clobber(vd)

    @retires
    def _fma_f(self, vd: int, f: float, vs: int) -> None:
        self._clobber(vd)

    @retires
    def _nfms_f(self, vd: int, f: float, vs: int) -> None:
        self._clobber(vd)

    @retires
    def _arith(self, op: str, vd: int, vs1: int, vs2: int) -> None:
        self._clobber(vd)

    @retires
    def _arith_f(self, op: str, vd: int, vs: int, f: float) -> None:
        self._clobber(vd)

    @retires
    def _splat_f(self, vd: int, f: float) -> None:
        self._clobber(vd)

    @retires
    def _mov(self, vd: int, vs: int) -> None:
        self._require_vl()
        self._set_content(vd, self._content(vs))

    @retires
    def _iota(self, vd: int) -> None:
        vl = self._require_vl()
        self._set_content(vd, IndexContent(self.ctx, "lin", vl,
                                           start=0, step=1))

    def _ix_transform(self, vd: int, vs: int,
                      fn_start: Callable[[int], int],
                      fn_step: Callable[[int], int]) -> None:
        self._require_vl()
        src = self._content(vs)
        self._set_content(
            vd, src.map_lin(fn_start, fn_step) if src is not None else None)

    @retires
    def _iadd_x(self, vd: int, vs: int, x: int) -> None:
        self._ix_transform(vd, vs, lambda s: s + x, lambda d: d)

    @retires
    def _imul_x(self, vd: int, vs: int, x: int) -> None:
        self._ix_transform(vd, vs, lambda s: s * x, lambda d: d * x)

    @retires
    def _iand_x(self, vd: int, vs: int, x: int) -> None:
        self._require_vl()
        src = self._content(vs)
        out: IndexContent | None = None
        if src is not None and src.kind == "lin" and src.mask is None:
            out = IndexContent(self.ctx, "lin", src.vl, start=src.start,
                               step=src.step, mask=x)
        self._set_content(vd, out)

    @retires
    def _redsum(self, vs: int) -> float:
        self._require_vl()
        return 0.0

    # -- register movement ---------------------------------------------
    @retires
    def _slideup(self, vd: int, vs: int, offset: IntLike) -> None:
        self._slide(vd, offset)

    @retires
    def _slidedown(self, vd: int, vs: int, offset: IntLike) -> None:
        self._slide(vd, offset)

    def _slide(self, vd: int, offset: IntLike) -> None:
        self._require_vl()
        if offset < 0:
            raise IllegalInstructionError(
                f"slide offset must be >= 0, got {offset}")
        self._index_contents.pop(vd, None)

    @retires
    def _gather_reg(self, vd: int, vs: int, vidx: int) -> None:
        self._clobber(vd)

    # -- misc -----------------------------------------------------------
    def load_index_u32(self, vd: int, offsets: np.ndarray) -> None:
        vl = self._require_vl()
        offs = np.ascontiguousarray(offsets, dtype=np.uint32)
        if offs.size < vl:
            raise VectorStateError(
                f"index array has {offs.size} entries but vl={vl}")
        self.vle32(vd, self._index_scratch_for(vl))  # type: ignore[attr-defined]
        self._set_content(vd, IndexContent(self.ctx, "arr", vl,
                                           arr=offs.astype(np.int64)))


class AbstractRvvMachine(AbstractCore, RvvMachine):
    """Abstract RVV 1.0 machine: RvvMachine's surface, no data."""


class AbstractRvvPlusMachine(AbstractCore, RvvPlusMachine):
    """Abstract machine with the paper's proposed extensions."""

    @retires
    def vrep4_vi(self, vd: int, vs: int, q: int) -> None:
        self._check_vrep4(vd, vs, q)
        self._index_contents.pop(vd, None)

    def vtrn4_vv(
        self, vd: tuple[int, int, int, int], vs: tuple[int, int, int, int]
    ) -> None:
        self._check_vtrn4(vd, vs)
        for g in range(QUAD):
            self._vtrn4_row(vd[g], vs, None)

    @retires
    def _vtrn4_row(self, vd: int, vs: tuple[int, ...], row: None) -> None:
        self._index_contents.pop(vd, None)


class AbstractSveMachine(AbstractCore, SveMachine):
    """Abstract SVE machine: whilelt configuration, gather adapters."""

    @retires
    def index_u32(self, vd: int, start: int, step: int) -> None:
        vl = self._require_vl()
        self._set_content(vd, IndexContent(self.ctx, "lin", vl,
                                           start=start, step=step))


#: Abstract counterpart of repro.analysis.audit.MACHINE_FLAVORS.
ABSTRACT_FLAVORS: dict[str, type[AbstractCore]] = {
    "rvv": AbstractRvvMachine,
    "rvv+": AbstractRvvPlusMachine,
    "sve": AbstractSveMachine,
}
