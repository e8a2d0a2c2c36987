"""Set-associative LRU cache simulation at cache-line granularity.

Models the two-level data cache of the paper's gem5 configuration
(RiscvMinorCPU: 64 kB L1 and a configurable L2, write-allocate,
writeback).  Accesses are cache-line IDs (byte address // line size);
the hierarchy filters L1 hits and forwards misses to L2, and counts the
DRAM line traffic (fills plus dirty writebacks) that the roofline
analysis uses as "DRAM bytes".

Implementation notes: each set is an :class:`collections.OrderedDict`
from tag to dirty bit, giving O(1) LRU updates at C speed.  Access
batches are replayed through a *batched* engine: NumPy partitions the
stream by set (stably, preserving each set's program order) and
compresses runs of consecutive same-line accesses — a re-touch of the
MRU line is an LRU no-op apart from its dirty bit — so the remaining
Python loop only walks the compressed runs.  The batched engine is
bit-identical to the per-access reference loop (property-tested in the
suite): counters, miss masks and the victim stream all match exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Iterable

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError
from repro.obs.metrics import METRICS, Counter


@dataclass
class CacheStats:
    """Access counters of one cache level."""

    accesses: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.accesses += other.accesses
        self.misses += other.misses
        self.evictions += other.evictions
        self.writebacks += other.writebacks

    def to_dict(self) -> dict[str, int]:
        """JSON-serializable counters (checkpointing, CLI)."""
        return {
            "accesses": self.accesses,
            "misses": self.misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CacheStats":
        """Inverse of :meth:`to_dict`."""
        return cls(
            accesses=int(d.get("accesses", 0)),
            misses=int(d.get("misses", 0)),
            evictions=int(d.get("evictions", 0)),
            writebacks=int(d.get("writebacks", 0)),
        )


class Cache:
    """One set-associative, write-allocate, writeback LRU cache level.

    Args:
        size_bytes: total capacity.
        assoc: ways per set.
        line_bytes: line size (64, as the paper's gem5 config).
        name: level label ("l1"/"l2"); when set, every batch of
            accesses also bumps the process-global counters
            ``cache.<name>.{accesses,misses,evictions,writebacks}``
            (:data:`repro.obs.METRICS`), bound once here.
    """

    def __init__(self, size_bytes: int, assoc: int = 8, line_bytes: int = 64,
                 name: str = "") -> None:
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ConfigError("cache size, associativity and line size must be positive")
        if size_bytes % (assoc * line_bytes):
            raise ConfigError(
                f"cache of {size_bytes} B is not divisible into {assoc}-way "
                f"sets of {line_bytes} B lines"
            )
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.name = name
        self.num_sets = size_bytes // (assoc * line_bytes)
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.stats = CacheStats()
        self._counters: list[Counter] | None = [
            METRICS.counter(f"cache.{name}.{what}",
                            f"line {what} of the {name} cache model")
            for what in ("accesses", "misses", "evictions", "writebacks")
        ] if name else None

    # ------------------------------------------------------------------
    def access_lines(
        self,
        lines: npt.NDArray[np.int64],
        is_store: npt.NDArray[np.bool_] | None = None,
        victims_out: list[tuple[int, int]] | None = None,
    ) -> npt.NDArray[np.bool_]:
        """Run a line-ID stream through the cache.

        Args:
            lines: int64 array of line IDs in access order.
            is_store: aligned boolean store mask; loads assumed if None.
            victims_out: if given, ``(index, line)`` pairs of dirty
                victims are appended — the writeback stream the next
                level must absorb (``index`` is the position of the
                evicting access in ``lines``).

        Returns:
            Boolean array, True where the access missed (these accesses
            propagate to the next level in program order).
        """
        n = int(lines.size)
        missed = np.zeros(n, dtype=bool)
        if n == 0:
            return missed
        nsets = self.num_sets
        assoc = self.assoc
        sets = self._sets
        stats = self.stats
        stats.accesses += n

        # Partition by set, stably: LRU state in one set depends only on
        # that set's subsequence, in program order.
        if nsets > 1:
            set_ids = lines % nsets
            order = np.argsort(set_ids, kind="stable")
            s_lines = lines[order]
            s_sets = set_ids[order]
        else:
            order = None
            s_lines = lines
            s_sets = None
        s_stores = None
        if is_store is not None:
            s_stores = is_store if order is None else is_store[order]

        # Compress runs of consecutive same-line accesses within a set:
        # within a set's subsequence, adjacency means no intervening
        # access to that set, so every access after a run's first is a
        # guaranteed MRU hit — an LRU no-op apart from OR-ing the run's
        # store flags into the dirty bit.
        run_start = np.empty(n, dtype=bool)
        run_start[0] = True
        np.not_equal(s_lines[1:], s_lines[:-1], out=run_start[1:])
        if s_sets is not None:
            run_start[1:] |= s_sets[1:] != s_sets[:-1]
        starts = np.flatnonzero(run_start)
        run_lines = s_lines[starts].tolist()
        run_sets: Iterable[int] = (
            s_sets[starts].tolist() if s_sets is not None else repeat(0)
        )
        # Original position of each run's first access — the only one
        # that can miss (and so the only one that can evict a victim).
        run_first = (order[starts] if order is not None else starts).tolist()
        run_dirty = (
            np.logical_or.reduceat(s_stores, starts).tolist()
            if s_stores is not None else None
        )

        miss_idx: list[int] = []
        miss_append = miss_idx.append
        victims: list[tuple[int, int]] = []
        evictions = 0
        writebacks = 0
        dirty_it: Iterable[bool] = (
            run_dirty if run_dirty is not None else repeat(False)
        )
        for line, set_id, i, store in zip(
            run_lines, run_sets, run_first, dirty_it
        ):
            s = sets[set_id]
            prev = s.pop(line, None)
            if prev is None:
                # Miss: allocate (write-allocate for stores too).
                miss_append(i)
                if len(s) >= assoc:
                    victim_line, victim_dirty = s.popitem(last=False)
                    evictions += 1
                    if victim_dirty:
                        writebacks += 1
                        if victims_out is not None:
                            victims.append((i, victim_line))
                s[line] = store
            else:
                s[line] = prev or store
        miss_count = len(miss_idx)
        if miss_idx:
            missed[miss_idx] = True
        if victims_out is not None and victims:
            # The replay visits sets out of program order; each evicting
            # access produces at most one victim, so sorting by access
            # index restores the program-order victim stream.
            victims.sort()
            victims_out.extend(victims)
        stats.misses += miss_count
        stats.evictions += evictions
        stats.writebacks += writebacks
        if self._counters is not None:
            for counter, value in zip(
                self._counters, (n, miss_count, evictions, writebacks)
            ):
                counter.inc(value)
        return missed


@dataclass
class HierarchyStats:
    """Joint statistics of an L1+L2 hierarchy plus DRAM traffic."""

    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    line_bytes: int = 64

    @property
    def dram_lines(self) -> int:
        """Lines moved to/from DRAM: L2 fills plus dirty writebacks."""
        return self.l2.misses + self.l2.writebacks

    @property
    def dram_bytes(self) -> int:
        return self.dram_lines * self.line_bytes

    def merge(self, other: "HierarchyStats") -> None:
        self.l1.merge(other.l1)
        self.l2.merge(other.l2)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable counters (checkpointing, CLI)."""
        return {
            "l1": self.l1.to_dict(),
            "l2": self.l2.to_dict(),
            "line_bytes": self.line_bytes,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "HierarchyStats":
        """Inverse of :meth:`to_dict`."""
        return cls(
            l1=CacheStats.from_dict(d.get("l1", {})),
            l2=CacheStats.from_dict(d.get("l2", {})),
            line_bytes=int(d.get("line_bytes", 64)),
        )


class CacheHierarchy:
    """Two-level data cache as in the paper's gem5 configuration.

    Args:
        l1_kb: L1 data cache capacity in kB (paper: 64).
        l2_mb: L2 capacity in MB (paper sweeps 1 — 256).
        l1_assoc/l2_assoc: associativities (gem5 defaults: 8/16-way are
            typical; results are insensitive within realistic ranges —
            see the ablation bench).
        line_bytes: cache-line size.
    """

    def __init__(
        self,
        l1_kb: int = 64,
        l2_mb: int = 1,
        l1_assoc: int = 8,
        l2_assoc: int = 16,
        line_bytes: int = 64,
    ) -> None:
        self.line_bytes = line_bytes
        self.l1 = Cache(l1_kb * 1024, l1_assoc, line_bytes, name="l1")
        self.l2 = Cache(l2_mb * 1024 * 1024, l2_assoc, line_bytes, name="l2")

    def access(
        self,
        lines: npt.NDArray[np.int64],
        is_store: npt.NDArray[np.bool_] | None = None,
    ) -> None:
        """Push a line stream through L1 then L2.

        The L2 absorbs two streams: L1 misses (refills, keeping their
        store mask) and L1 dirty-victim writebacks, which arrive as
        store accesses right after the miss that evicted them.  Without
        the writeback stream a line dirtied by an L1 store *hit* would
        silently vanish on eviction and the L2's accesses, dirty state
        and downstream DRAM traffic would all be understated.
        """
        victims: list[tuple[int, int]] = []
        l1_missed = self.l1.access_lines(lines, is_store, victims_out=victims)
        n_miss = int(l1_missed.sum())
        if n_miss == 0 and not victims:
            return
        miss_idx = np.flatnonzero(l1_missed)
        miss_lines = lines[l1_missed]
        miss_stores = (
            is_store[l1_missed]
            if is_store is not None
            else np.zeros(n_miss, dtype=bool)
        )
        if victims:
            v_idx = np.array([i for i, _ in victims], dtype=np.int64)
            v_lines = np.array([l for _, l in victims], dtype=np.int64)
            # Merge in program order; the stable sort keeps each
            # writeback just after the miss that evicted its victim.
            idx = np.concatenate([miss_idx, v_idx])
            l2_lines = np.concatenate([miss_lines, v_lines])
            l2_stores = np.concatenate(
                [miss_stores, np.ones(v_lines.size, dtype=bool)]
            )
            order = np.argsort(idx, kind="stable")
            l2_lines = l2_lines[order]
            l2_stores = l2_stores[order]
        else:
            l2_lines, l2_stores = miss_lines, miss_stores
        self.l2.access_lines(l2_lines, l2_stores)

    def snapshot(self) -> HierarchyStats:
        """Copy of the current counters."""
        return HierarchyStats(
            l1=CacheStats(**vars(self.l1.stats)),
            l2=CacheStats(**vars(self.l2.stats)),
            line_bytes=self.line_bytes,
        )
