"""Vector register file and a checking register allocator.

RVV 1.0 architecturally provides 32 vector registers.  The paper's
Section 3 discusses how the lack of vector-typed pointers forces long
open-coded transform sequences whose intermediate values create register
pressure and potential spilling.  To keep the Python kernels honest, the
functional machine hands registers out through :class:`RegAlloc`, which
raises :class:`~repro.errors.RegisterSpillError` the moment a kernel
would need more live registers than the architecture has — the same wall
a C intrinsics programmer hits.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np
import numpy.typing as npt

from repro.errors import RegisterSpillError, VectorStateError

#: Architectural number of vector registers in RVV 1.0 (and SVE).
NUM_VREGS = 32


class VRegFile:
    """Backing storage for the 32 architectural vector registers.

    Registers are stored as raw bytes; typed views reinterpret them
    according to the selected element width, mirroring how RVV
    reinterprets register contents under different SEW settings.  Each
    ``(dtype, idx, lmul)`` view is built on first use and then served
    from :attr:`views`; an invalid index or misaligned group is checked
    before it is cached, so it raises on every access.
    """

    def __init__(self, vlen_bits: int) -> None:
        if vlen_bits % 8:
            raise VectorStateError(f"VLEN must be a multiple of 8 bits, got {vlen_bits}")
        self.vlen_bits = vlen_bits
        self.vlen_bytes = vlen_bits // 8
        self._data = np.zeros((NUM_VREGS, self.vlen_bytes), dtype=np.uint8)
        #: Typed views keyed by ``(dtype, idx, lmul)``; all alias ``_data``.
        self._views: dict[tuple[type[np.generic], int, int], npt.NDArray[Any]] = {}

    def _check_reg(self, idx: int, lmul: int = 1) -> None:
        if not 0 <= idx < NUM_VREGS:
            raise VectorStateError(f"vector register index {idx} out of range [0, 32)")
        if idx % lmul:
            raise VectorStateError(
                f"register v{idx} violates LMUL={lmul} group alignment"
            )
        if idx + lmul > NUM_VREGS:
            raise VectorStateError(
                f"register group v{idx}..v{idx + lmul - 1} exceeds the register file"
            )

    def view(self, dtype: type[np.generic], idx: int,
             lmul: int = 1) -> npt.NDArray[Any]:
        """A ``dtype`` view over register group ``idx`` (lmul registers)."""
        key = (dtype, idx, lmul)
        v = self._views.get(key)
        if v is None:
            self._check_reg(idx, lmul)
            v = self._views[key] = self._data[idx : idx + lmul].reshape(-1).view(dtype)
        return v

    def f32(self, idx: int, lmul: int = 1) -> npt.NDArray[Any]:
        """Float32 view over register group ``idx`` (lmul registers)."""
        return self.view(np.float32, idx, lmul)

    def i32(self, idx: int, lmul: int = 1) -> npt.NDArray[Any]:
        """Int32 view over register group ``idx``."""
        return self.view(np.int32, idx, lmul)

    def u32(self, idx: int, lmul: int = 1) -> npt.NDArray[Any]:
        """Uint32 view over register group ``idx``."""
        return self.view(np.uint32, idx, lmul)

    def raw(self, idx: int, lmul: int = 1) -> npt.NDArray[Any]:
        return self.view(np.uint8, idx, lmul)


class RegAlloc:
    """Hands out architectural register indices and detects spilling.

    A kernel allocates with :meth:`alloc` (or the :meth:`scoped` context
    manager) and must :meth:`free` what it allocated.  Exhaustion raises
    :class:`RegisterSpillError` rather than silently modelling spills:
    the paper's kernels were written to fit the register file, and a
    reproduction that silently spilled would change the memory traffic
    it is supposed to measure.
    """

    def __init__(self, reserved: tuple[int, ...] = ()) -> None:
        self._free = [r for r in range(NUM_VREGS - 1, -1, -1) if r not in reserved]
        self._live: set[int] = set()
        self.high_water = 0

    def alloc(self, lmul: int = 1) -> int:
        """Allocate one register group aligned to ``lmul``."""
        for i, r in enumerate(self._free):
            if r % lmul == 0 and all(
                (r + k) in self._free or (r + k) == r for k in range(lmul)
            ):
                if lmul == 1:
                    self._free.pop(i)
                    self._live.add(r)
                    self.high_water = max(self.high_water, len(self._live))
                    return r
                group = [r + k for k in range(lmul)]
                if all(g in self._free for g in group):
                    for g in group:
                        self._free.remove(g)
                        self._live.add(g)
                    self.high_water = max(self.high_water, len(self._live))
                    return r
        raise RegisterSpillError(
            f"no free vector register group (lmul={lmul}); "
            f"{len(self._live)} live of {NUM_VREGS} — the kernel would spill"
        )

    def alloc_many(self, n: int, lmul: int = 1) -> list[int]:
        """Allocate ``n`` register groups at once."""
        return [self.alloc(lmul) for _ in range(n)]

    def free(self, idx: int, lmul: int = 1) -> None:
        for k in range(lmul):
            r = idx + k
            if r not in self._live:
                raise RegisterSpillError(f"double free of vector register v{r}")
            self._live.remove(r)
            self._free.append(r)
        self._free.sort(reverse=True)

    @property
    def live_count(self) -> int:
        return len(self._live)

    @contextmanager
    def scoped(self, n: int, lmul: int = 1) -> Iterator[list[int]]:
        """Allocate ``n`` registers for the duration of a ``with`` block."""
        regs = self.alloc_many(n, lmul)
        try:
            yield regs
        finally:
            for r in regs:
                self.free(r, lmul)
