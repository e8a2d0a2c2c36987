"""Flat byte-addressed memory for the functional simulators.

A single :class:`Memory` instance backs one simulated process: a NumPy
``uint8`` buffer with a bump allocator.  Kernels obtain buffers through
:meth:`Memory.alloc` (cache-line aligned by default, as the paper's C
code would get from NNPACK's aligned allocators) and the machine's
vector loads/stores read and write through typed views.

All accesses are bounds-checked; silent wraparound or out-of-allocation
writes in a simulator would invalidate every result built on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AlignmentError, AllocationError, MemoryError_

#: Default allocation alignment: one cache line.
LINE_BYTES = 64


@dataclass(frozen=True)
class Extent:
    """One allocation's declared footprint: ``[base, base + size)``.

    The memory-safety pass of :mod:`repro.analysis` proves every traced
    access against these extents — alignment gaps between allocations
    are deliberately *not* part of any extent, so a store running past a
    buffer's end is flagged even though the flat memory accepts it.
    """

    label: str | None
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, nbytes: int = 1) -> bool:
        return self.base <= addr and addr + nbytes <= self.end


class Memory:
    """A flat simulated memory with a bump allocator.

    Args:
        size_bytes: total size of the simulated address space.
        base: address of the first allocatable byte.  A non-zero base
            catches accidental NULL-relative addressing in kernels.
    """

    def __init__(self, size_bytes: int = 1 << 26, base: int = 1 << 12) -> None:
        if size_bytes <= 0:
            raise AllocationError(f"memory size must be positive, got {size_bytes}")
        self.size = int(size_bytes)
        self.base = int(base)
        self._buf = np.zeros(self.size, dtype=np.uint8)
        # Float32 view of the 4-byte-aligned addresses: vector accesses
        # of EEW=32 index it by word.
        self._f32_lead = -self.base % 4
        self._f32_words = self._buf[
            self._f32_lead : self._f32_lead + (self.size - self._f32_lead) // 4 * 4
        ].view(np.float32)
        self._brk = self.base
        self._allocations: list[tuple[int, int]] = []  # (addr, nbytes)
        self._labels: list[str | None] = []

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, align: int = LINE_BYTES,
              label: str | None = None) -> int:
        """Allocate ``nbytes`` and return the simulated address.

        Raises:
            AllocationError: when the request does not fit.
            AlignmentError: when ``align`` is not a positive power of two.
        """
        if nbytes < 0:
            raise AllocationError(f"allocation size must be non-negative, got {nbytes}")
        if align <= 0 or (align & (align - 1)) != 0:
            raise AlignmentError(f"alignment must be a positive power of two, got {align}")
        addr = (self._brk + align - 1) & ~(align - 1)
        if addr + nbytes > self.base + self.size:
            raise AllocationError(
                f"out of simulated memory: need {nbytes} bytes at {addr:#x}, "
                f"heap ends at {self.base + self.size:#x}"
            )
        self._brk = addr + nbytes
        self._allocations.append((addr, nbytes))
        self._labels.append(label)
        return addr

    def alloc_f32(self, nelems: int, align: int = LINE_BYTES,
                  label: str | None = None) -> int:
        """Allocate space for ``nelems`` float32 values."""
        return self.alloc(4 * nelems, align, label=label)

    @property
    def bytes_allocated(self) -> int:
        """Total bytes handed out so far (excluding alignment gaps)."""
        return sum(n for _, n in self._allocations)

    @property
    def allocations(self) -> tuple[Extent, ...]:
        """Every allocation made so far, as labeled extents."""
        return tuple(
            Extent(label, addr, nbytes)
            for (addr, nbytes), label in zip(self._allocations, self._labels)
        )

    # ------------------------------------------------------------------
    # Typed access
    # ------------------------------------------------------------------
    def _check(self, addr: int, nbytes: int) -> int:
        off = addr - self.base
        if off < 0 or off + nbytes > self.size:
            raise MemoryError_(
                f"access of {nbytes} bytes at {addr:#x} is outside simulated "
                f"memory [{self.base:#x}, {self.base + self.size:#x})"
            )
        return off

    def view(self, addr: int, count: int, dtype: np.dtype | type = np.float32) -> np.ndarray:
        """A zero-copy typed view of ``count`` elements at ``addr``.

        ``addr`` must be aligned to the element size (RVV requires
        element-aligned vector memory accesses).
        """
        dt = np.dtype(dtype)
        if addr % dt.itemsize:
            raise AlignmentError(
                f"address {addr:#x} is not aligned to element size {dt.itemsize}"
            )
        off = self._check(addr, count * dt.itemsize)
        return self._buf[off : off + count * dt.itemsize].view(dt)

    def view_f32(self, addr: int, count: int) -> np.ndarray:
        """:meth:`view` of ``count`` float32 elements, as a slice of the
        float32 word view (the unit-stride vector access path)."""
        if addr % 4:
            raise AlignmentError(
                f"address {addr:#x} is not aligned to element size 4")
        w = (self._check(addr, 4 * count) - self._f32_lead) >> 2
        return self._f32_words[w : w + count]

    def read_f32(self, addr: int, count: int) -> np.ndarray:
        """Copy out ``count`` float32 elements starting at ``addr``."""
        return self.view(addr, count, np.float32).copy()

    def write_f32(self, addr: int, values: np.ndarray) -> None:
        """Write a float32 array to ``addr``."""
        arr = np.ascontiguousarray(values, dtype=np.float32).ravel()
        self.view(addr, arr.size, np.float32)[:] = arr

    def fill_noise(self, addr: int, nelems: int,
                   rng: np.random.Generator) -> None:
        """Fill ``nelems`` float32 values at ``addr`` with random data.

        Driver-side staging protocol shared with the abstract memory of
        the symbolic analyzer (where it is a no-op): harnesses that
        only need *some* data in a buffer stage it through this hook so
        the buffer size never has to be concretized.
        """
        self.view(addr, int(nelems), np.float32)[:] = (
            rng.standard_normal(int(nelems)).astype(np.float32))

    def gather_f32(self, base: int, byte_offsets: np.ndarray) -> np.ndarray:
        """Element gather: read float32 at ``base + off`` for each offset."""
        offs = np.asarray(byte_offsets, dtype=np.int64)
        if offs.size == 0:
            return np.empty(0, dtype=np.float32)
        return self._f32_words[self._word_index(base + offs, "gather")]

    def scatter_f32(self, base: int, byte_offsets: np.ndarray, values: np.ndarray) -> None:
        """Element scatter: write float32 values at ``base + off``."""
        offs = np.asarray(byte_offsets, dtype=np.int64)
        vals = np.ascontiguousarray(values, dtype=np.float32).ravel()
        if offs.size != vals.size:
            raise MemoryError_(
                f"scatter offsets ({offs.size}) and values ({vals.size}) differ in length"
            )
        if offs.size == 0:
            return
        self._f32_words[self._word_index(base + offs, "scatter")] = vals

    def _word_index(self, addrs: np.ndarray, what: str) -> np.ndarray:
        """Float32-word indices of element addresses ``addrs``, each
        bounds-checked and 4-byte aligned."""
        self._check(int(addrs.min()), 1)
        self._check(int(addrs.max()), 4)
        if int(np.bitwise_or.reduce(addrs)) & 3:  # some address is unaligned
            raise AlignmentError(f"{what} addresses must be 4-byte aligned for EEW=32")
        return (addrs - (self.base + self._f32_lead)) >> 2

    def strided_view_f32(self, addr: int, count: int, stride_bytes: int) -> np.ndarray:
        """A strided float32 view (stride in bytes, may exceed 4).

        Used by strided vector loads/stores; returns a NumPy view with the
        requested byte stride so reads and writes hit simulated memory
        directly.
        """
        if stride_bytes % 4 or addr % 4:
            raise AlignmentError(
                "strided fp32 access requires 4-byte aligned address and stride"
            )
        if count == 0:
            return np.empty(0, dtype=np.float32)
        sw = stride_bytes // 4
        lo = addr + min(stride_bytes, 0) * (count - 1)
        w = (self._check(lo, abs(stride_bytes) * (count - 1) + 4)
             - self._f32_lead) >> 2
        win = self._f32_words[w : w + abs(sw) * (count - 1) + 1]
        if sw or count == 1:
            return win[::sw] if sw else win
        # A zero stride: every element aliases the one word.
        return np.lib.stride_tricks.as_strided(
            win, shape=(count,), strides=(0,), writeable=True)
