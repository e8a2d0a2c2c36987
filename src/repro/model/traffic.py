"""Closed-form cache-traffic modeling for full network layers.

A full convolutional layer executes on the order of 1e8-1e9 dynamic
vector instructions — far beyond what even a sampled line-by-line cache
simulation can enumerate per sweep point.  The analytical models in
this package therefore describe each kernel phase as

- **exact instruction counts** per opcode class (closed forms mirroring
  the kernel loop structure, validated instruction-for-instruction
  against functional traces in the test suite), and
- **traffic classes**: groups of cache-line touches that share a
  *reuse distance* — the number of distinct bytes touched between
  consecutive uses of a line, derived from the kernel's loop volumes.
  A :class:`PhaseModel` stores its classes as columns
  (:class:`TrafficColumns`: accesses, distance, is_store, region,
  dilution), one row per class in append order.  Models append scalars
  for one class or NumPy arrays for a whole run of classes, through the
  one validating :meth:`PhaseModel.add_traffic`; its ``repeat`` count
  appends a loop's per-iteration pattern of classes once per iteration
  (the GEMM model's per-panel blocks, the Winograd models' k-panels and
  channel blocks) while validating and condensing only the pattern.

The classical stack-distance criterion (Mattson et al.; the same one
:mod:`repro.sim.stackdist` measures empirically) then decides, for any
cache capacity, which classes hit: an access whose reuse distance
exceeds the capacity misses.  This is what turns the paper's co-design
sweep (vector length x L2 size) into an O(1) evaluation per point while
preserving the effects that drive its findings — filter-panel reuse
outgrowing the L2 as VLEN grows (Table 1), transformed-tensor streaming
(Table 2), and the V-plane/filter-slab reuse that saturates at 64 MB
for VGG16 and 256 MB for YOLOv3 (Figures 3/4).

:func:`evaluate_hierarchy` is the scalar reference: it walks the
column rows in order.  :class:`CondensedTraffic` concatenates the same
columns once per layer and reproduces the reference bit-identically in
two vectorized halves (the L1 once, then the L2 across an axis of
capacities) — the record/replay path of the co-design sweep.  A layer
has hundreds of thousands of classes but at most a few dozen distinct
effective distances, so each append keeps its own sorted distinct set,
and condensation merges those small sets instead of sorting the
classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, NamedTuple, Sequence, Union

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError
from repro.isa import FLOPS_PER_ELEM, OpClass
from repro.sim.cache import CacheStats, HierarchyStats
from repro.sim.stackdist import SparseReuseProfile
from repro.sim.stats import SimStats
from repro.sim.system import SystemConfig

#: Cache line size used throughout the models.
LINE = 64

#: Reuse distance markers.
COLD = math.inf  # compulsory miss: never hits

FloatArray = npt.NDArray[np.float64]
BoolArray = npt.NDArray[np.bool_]
IndexArray = npt.NDArray[np.intp]

#: A traffic field as :meth:`PhaseModel.add_traffic` takes it: one
#: value for every appended class, or one per class.
Values = Union[float, npt.NDArray[Any]]
Flags = Union[bool, npt.NDArray[Any]]


def _frozen(arr: npt.NDArray[Any]) -> npt.NDArray[Any]:
    arr.setflags(write=False)
    return arr


class TrafficColumns(NamedTuple):
    """Traffic classes as read-only columns, one row per class.

    A traffic class is a group of cache-line touches sharing one reuse
    distance.  Per row:

    - ``accesses``: line touches in the group (one vector memory
      instruction touches each line at most once); always positive.
    - ``distance``: reuse distance in bytes at the moment of the touch;
      ``COLD`` for first touches.
    - ``is_store``: whether the touches are writes (writeback modeling).
    - ``region``: total size in bytes of the array region the class
      belongs to.  A dirty line is written back only if its region does
      not stay resident in the L2 (streaming stores); infinite means
      "always written back on miss".
    - ``dilution``: set-conflict factor for power-of-two strided access
      patterns: a stride of ``s`` lines concentrates the class into
      ``1/s`` of a set-indexed cache's sets, shrinking the effective
      capacity by ``s`` (validated against the exact set-associative
      simulator in the test suite).
    """

    accesses: FloatArray
    distance: FloatArray
    is_store: BoolArray
    region: FloatArray
    dilution: FloatArray


def _tiled(
    parts: Sequence[tuple[npt.NDArray[Any], int]], dtype: npt.DTypeLike,
) -> npt.NDArray[Any]:
    """One read-only array holding each ``(pattern, repeat)`` part's
    pattern ``repeat`` times over, parts in order (a lone unrepeated
    part is returned as is)."""
    if len(parts) == 1 and parts[0][1] == 1:
        return _frozen(parts[0][0])
    out = np.empty(sum(p.size * r for p, r in parts), dtype=dtype)
    start = 0
    for pattern, repeat in parts:
        stop = start + pattern.size * repeat
        out[start:stop].reshape(repeat, pattern.size)[...] = pattern
        start = stop
    return _frozen(out)


class _Run(NamedTuple):
    """One append of traffic classes, validated and without zero-access
    rows, that repeats ``repeat`` times in a row; ``eff_unique`` holds
    the sorted distinct effective distances ``distance * dilution`` of
    ``cols`` and ``eff_index`` each row's position in it."""

    cols: TrafficColumns
    eff_unique: FloatArray
    eff_index: IndexArray
    repeat: int

    @classmethod
    def of(cls, cols: TrafficColumns, repeat: int = 1) -> _Run:
        eff = cols.distance * cols.dilution
        eff_unique = np.unique(eff)
        return cls(cols, _frozen(eff_unique),
                   _frozen(np.searchsorted(eff_unique, eff)), repeat)


def _laid_out(runs: Sequence[_Run]) -> TrafficColumns:
    """The classes of ``runs``, each run repeated, in order."""
    return TrafficColumns(*(
        _tiled([(r.cols[i], r.repeat) for r in runs], dtype)
        for i, dtype in enumerate(
            (np.float64, np.float64, bool, np.float64, np.float64))))


def _merged_eff(runs: Sequence[_Run]) -> tuple[FloatArray, IndexArray]:
    """``np.unique(eff, return_inverse=True)`` of the effective
    distances of ``runs`` laid out in order, without sorting them: the
    runs' small sorted sets are merged, and each run's indices are
    mapped into the merged set through a ``searchsorted`` table before
    they are tiled."""
    eff_unique = _frozen(np.unique(np.concatenate(
        [r.eff_unique for r in runs] or [np.empty(0, dtype=np.float64)])))
    return eff_unique, _tiled(
        [(np.searchsorted(eff_unique, r.eff_unique)[r.eff_index], r.repeat)
         for r in runs], np.intp)


#: One scalar-appended traffic class, pending conversion to columns.
_Row = tuple[float, float, bool, float, float]


@dataclass(eq=False)
class PhaseModel:
    """One kernel phase: exact instruction counts plus traffic classes.

    Traffic is appended through :meth:`add_traffic` and read back as
    :attr:`traffic` columns.  Scalar appends are buffered as rows and
    converted to columns on the next array append or read, so models
    that append class by class stay cheap; array appends are kept as
    runs, each condensed on its own, and laid out only when read.
    """

    name: str
    instrs: dict[OpClass, int] = field(default_factory=dict)
    elems: dict[OpClass, int] = field(default_factory=dict)
    _rows: list[_Row] = field(default_factory=list, init=False, repr=False)
    _runs: list[_Run] = field(default_factory=list, init=False, repr=False)

    def add_instr(self, opclass: OpClass, count: int, elems_per: int) -> None:
        if count < 0 or elems_per < 0:
            raise ConfigError(f"negative instruction count in phase {self.name}")
        self.instrs[opclass] = self.instrs.get(opclass, 0) + count
        self.elems[opclass] = self.elems.get(opclass, 0) + count * elems_per

    def add_traffic(
        self,
        name: str,
        accesses: Values,
        distance: Values,
        is_store: Flags = False,
        region: Values = math.inf,
        dilution: Values = 1.0,
        repeat: int = 1,
    ) -> None:
        """Append traffic classes (fields as in :class:`TrafficColumns`).

        Scalars append one class.  If any field is a 1-D array, the
        fields are broadcast together and append one class per element,
        in order.  The classes are appended ``repeat`` times in a row;
        validation, dropping and condensation run once, on the single
        copy.  ``name`` labels the classes in error messages.  Classes
        without accesses are dropped; NaN or negative accesses or
        distances, NaN regions, NaN or non-positive dilutions, and a
        ``repeat`` below 1 raise :class:`ConfigError`.  A ``-0.0``
        distance is stored as ``+0.0``, so the distinct distances do not
        depend on the order of appends.
        """
        if repeat < 1:
            raise ConfigError(
                f"traffic class {name!r} in phase {self.name!r}: repeat "
                f"must be at least 1, got {repeat}")
        if repeat == 1 and not (isinstance(accesses, np.ndarray)
                                or isinstance(distance, np.ndarray)
                                or isinstance(is_store, np.ndarray)
                                or isinstance(region, np.ndarray)
                                or isinstance(dilution, np.ndarray)):
            acc, dist, reg, dil = (float(accesses), float(distance),
                                   float(region), float(dilution))
            # NaN fails every comparison.
            if not (acc >= 0.0 and dist >= 0.0 and reg == reg and dil > 0.0):
                raise self._invalid(name, acc, dist, reg, dil)
            if acc > 0.0:
                # Adding +0.0 turns -0.0 into +0.0 and keeps every
                # other value.
                self._rows.append((acc, dist + 0.0, bool(is_store), reg, dil))
            return
        acc_a, dist_a, store_a, region_a, dil_a = np.atleast_1d(
            *np.broadcast_arrays(
                np.asarray(accesses, dtype=np.float64),
                np.asarray(distance, dtype=np.float64),
                np.asarray(is_store, dtype=bool),
                np.asarray(region, dtype=np.float64),
                np.asarray(dilution, dtype=np.float64),
            ))
        if acc_a.ndim > 1:
            raise ConfigError(
                f"traffic class {name!r} in phase {self.name!r}: fields "
                f"must be scalars or 1-D arrays, got shape {acc_a.shape}")
        if not ((acc_a >= 0.0).all() and (dist_a >= 0.0).all()
                and (region_a == region_a).all() and (dil_a > 0.0).all()):
            raise self._invalid(name, acc_a, dist_a, region_a, dil_a)
        keep = acc_a > 0.0
        if keep.any():
            self._flush_rows()
            self._runs.append(_Run.of(TrafficColumns(*(
                _frozen(col[keep])
                for col in (acc_a, dist_a + 0.0, store_a, region_a, dil_a))),
                repeat))

    def _invalid(
        self, name: str, accesses: Values, distance: Values, region: Values,
        dilution: Values,
    ) -> ConfigError:
        """The error for the first invalid field of a rejected append."""
        for what, values, need in (
            ("accesses", accesses, "non-negative"),
            ("distance", distance, "non-negative"),
            ("region", region, "a number"),
            ("dilution", dilution, "positive"),
        ):
            arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
            ok = {"positive": arr > 0.0, "non-negative": arr >= 0.0,
                  "a number": arr == arr}[need]
            if not ok.all():
                return ConfigError(
                    f"traffic class {name!r} in phase {self.name!r}: {what} "
                    f"must be {need}, got {arr[~ok][0]}")
        return ConfigError(f"invalid traffic class {name!r} in phase {self.name!r}")

    def _flush_rows(self) -> None:
        if self._rows:
            acc, dist, store, region, dil = zip(*self._rows)
            self._runs.append(_Run.of(TrafficColumns(
                _frozen(np.array(acc, dtype=np.float64)),
                _frozen(np.array(dist, dtype=np.float64)),
                _frozen(np.array(store, dtype=bool)),
                _frozen(np.array(region, dtype=np.float64)),
                _frozen(np.array(dil, dtype=np.float64)),
            )))
            self._rows.clear()

    def _flushed_runs(self) -> list[_Run]:
        self._flush_rows()
        return self._runs

    @property
    def traffic(self) -> TrafficColumns:
        """All traffic classes appended so far, in append order."""
        runs = self._flushed_runs()
        if len(runs) != 1 or runs[0].repeat != 1:
            runs[:] = [_Run(_laid_out(runs), *_merged_eff(runs), 1)]
        return runs[0].cols

    @property
    def flops(self) -> int:
        return sum(
            FLOPS_PER_ELEM.get(c, 0) * e for c, e in self.elems.items()
        )

    @property
    def total_line_accesses(self) -> float:
        return _ordered_sum(self.traffic.accesses)


#: Effective-capacity derating for the stack-distance criterion.
#: A fully-associative LRU stack distance understates misses in a real
#: set-associative cache where several tensors co-reside and conflict;
#: the classical correction is to compare distances against a fraction
#: of the nominal capacity.  Calibrated against the exact
#: set-associative simulator on the validation layers (test suite).
CAPACITY_FACTOR = 1.0

#: Sharpness of the smooth hit/miss transition.  A hard threshold at
#: the effective capacity makes parameter sweeps jump discontinuously
#: when one traffic class crosses it; a real set-associative LRU cache
#: transitions gradually (lines start conflicting before the working
#: set reaches the nominal capacity).  The hit probability used is
#: ``1 / (1 + (distance / capacity)^SHARPNESS)``.
SHARPNESS = 3.0


def _hit_probability(distance: float, capacity: float, sharpness: float) -> float:
    """Smooth stack-distance hit criterion (1 at d<<C, 0 at d>>C)."""
    if distance == 0.0:
        return 1.0
    if math.isinf(distance):
        return 0.0
    ratio = distance / capacity
    return 1.0 / (1.0 + ratio**sharpness)


def evaluate_hierarchy(
    phases: list[PhaseModel],
    l1_bytes: int,
    l2_bytes: int,
    line_bytes: int = LINE,
    capacity_factor: float = CAPACITY_FACTOR,
    sharpness: float = SHARPNESS,
) -> HierarchyStats:
    """Apply the (smoothed) stack-distance criterion to all traffic.

    An access hits L1 with the probability its reuse distance fits the
    L1's effective capacity, hits L2 likewise, and misses to DRAM
    otherwise (cold accesses always miss).  Writebacks are modeled as
    one per distinct dirty line that leaves the L2, i.e. the miss
    portion of store traffic whose region does not stay resident.
    """
    l1_eff = l1_bytes * capacity_factor
    l2_eff = l2_bytes * capacity_factor
    l1 = CacheStats()
    l2 = CacheStats()
    wb = 0.0
    l1_acc = l1_miss = l2_acc = l2_miss = 0.0
    cols = _laid_out([r for ph in phases for r in ph._flushed_runs()])
    for accesses, distance, is_store, region, dilution in zip(
        *(col.tolist() for col in cols)
    ):
        eff = distance * dilution
        p1 = _hit_probability(eff, l1_eff, sharpness)
        p2 = _hit_probability(eff, l2_eff, sharpness)
        l1_acc += accesses
        to_l2 = accesses * (1.0 - p1)
        l1_miss += to_l2
        l2_acc += to_l2
        missed = to_l2 * (1.0 - p2)
        l2_miss += missed
        if is_store and region > l2_eff:
            wb += missed
    l1.accesses = int(round(l1_acc))
    l1.misses = int(round(l1_miss))
    l2.accesses = int(round(l2_acc))
    l2.misses = int(round(l2_miss))
    l2.writebacks = int(round(wb))
    return HierarchyStats(l1=l1, l2=l2, line_bytes=line_bytes)


def _ordered_sum(values: FloatArray) -> float:
    """Sum in array order with sequential accumulation.

    ``np.cumsum`` accumulates left-to-right, matching a reference
    ``+=`` loop bit-for-bit; ``np.sum`` pairwise-sums and may round
    differently.  Bit-identity to :func:`evaluate_hierarchy` depends on
    this.
    """
    return float(values.cumsum()[-1]) if values.size else 0.0


@dataclass(frozen=True)
class CondensedTraffic:
    """A phase list's traffic columns, concatenated and condensed, that
    reproduce :func:`evaluate_hierarchy` bit-identically in two halves.

    One row per traffic class, in the exact order the reference loop
    visits them (phase order, then append order within the phase); the
    distance and dilution columns are folded into the effective
    distance, stored as its sorted unique values plus an inverse index
    (exactly ``np.unique(distance * dilution, return_inverse=True)``).
    :meth:`l1_split` resolves the L1 once; :meth:`L1Split.smooth_l2`
    then applies the L2 half of the reference at every capacity of an
    axis.  Two properties make the vectorized halves produce the same
    bits as the scalar reference:

    - The hit-probability power is the one operation whose NumPy SIMD
      code path does *not* round like scalar ``**``; effective
      distances are therefore deduplicated (a network layer has up to
      hundreds of thousands of classes but at most 14 distinct
      effective distances in VGG16 and YOLOv3) and
      :func:`_hit_probability` runs as scalar math once per unique
      distance, gathered back through the inverse index.
    - Accumulations run through :func:`_ordered_sum`, which preserves
      the reference loop's left-to-right addition order.

    Elementwise ``+ - * /`` are single IEEE-754 operations and match
    their scalar counterparts exactly — including the effective
    distance ``distance * dilution``, formed once per class of each
    appended pattern.

    :meth:`from_phases` sorts no per-class array: every append already
    holds its own sorted distinct distances and a local index, so the
    unique values are the merge of those small sets, and each append's
    index is mapped into them through a ``searchsorted`` table before it
    is laid out (tiled, for a repeated append).
    """

    accesses: FloatArray
    eff_unique: FloatArray
    eff_index: IndexArray
    store_mask: BoolArray
    region: FloatArray

    @classmethod
    def from_phases(cls, phases: list[PhaseModel]) -> CondensedTraffic:
        runs = [run for ph in phases for run in ph._flushed_runs()]
        eff_unique, eff_index = _merged_eff(runs)
        return cls(
            accesses=_tiled([(r.cols.accesses, r.repeat) for r in runs],
                            np.float64),
            eff_unique=eff_unique,
            eff_index=eff_index,
            store_mask=_tiled([(r.cols.is_store, r.repeat) for r in runs],
                              bool),
            region=_tiled([(r.cols.region, r.repeat) for r in runs],
                          np.float64),
        )

    @property
    def n_classes(self) -> int:
        return int(self.accesses.size)

    @cached_property
    def _eff_list(self) -> list[float]:
        return self.eff_unique.tolist()  # type: ignore[no-any-return]

    def _miss_fractions(self, capacity: float) -> FloatArray:
        """Per-class smoothed miss fraction ``1 - p`` at an effective
        capacity (formed per unique distance, then gathered)."""
        hit = np.array(
            [_hit_probability(d, capacity, SHARPNESS) for d in self._eff_list],
            dtype=np.float64,
        )
        return (1.0 - hit)[self.eff_index]

    def l1_split(self, l1_bytes: int, line_bytes: int = LINE) -> L1Split:
        """The L1 half of :func:`evaluate_hierarchy` at ``l1_bytes``."""
        to_l2 = self.accesses * self._miss_fractions(l1_bytes * CAPACITY_FACTOR)
        to_l2.setflags(write=False)
        return L1Split(
            traffic=self,
            to_l2=to_l2,
            accesses=int(round(_ordered_sum(self.accesses))),
            misses=int(round(_ordered_sum(to_l2))),
            line_bytes=line_bytes,
        )


@dataclass(frozen=True)
class L1Split:
    """Condensed traffic resolved at one L1 size: the L2's input,
    answerable over an axis of L2 capacities under either L2 criterion.

    ``to_l2`` holds, per condensed class of ``traffic``, the line
    touches that miss the L1 and go on to the L2; ``accesses`` and
    ``misses`` are the rounded L1 counters (the reference's L2 access
    count equals its L1 miss count).  Both criteria take L2 byte sizes
    in any order and return the L2's unrounded ``(misses,
    writebacks)`` as arrays in that order.
    """

    traffic: CondensedTraffic
    to_l2: FloatArray
    accesses: int
    misses: int
    line_bytes: int

    def smooth_l2(self, l2_bytes: Sequence[int]) -> tuple[FloatArray, FloatArray]:
        """The reference's smoothed criterion at every L2 size of
        ``l2_bytes`` — bit-identical, size by size, to
        :func:`evaluate_hierarchy`; O(unique distances) scalar work per
        size."""
        tr = self.traffic
        caps = (np.asarray(l2_bytes, dtype=np.float64)
                * CAPACITY_FACTOR).tolist()
        misses = np.empty(len(caps))
        writebacks = np.empty(len(caps))
        for i, l2_eff in enumerate(caps):
            missed = self.to_l2 * tr._miss_fractions(l2_eff)
            misses[i] = _ordered_sum(missed)
            writebacks[i] = _ordered_sum(
                missed[tr.store_mask & (tr.region > l2_eff)])
        return misses, writebacks

    @cached_property
    def _sharp_profile(
        self,
    ) -> tuple[SparseReuseProfile, FloatArray, FloatArray, FloatArray]:
        """The sharp criterion's view of ``to_l2``, built on first use:
        its stack-distance profile in lines, plus the distance, weight
        and region of every store class (for writebacks).

        The profile bins the classes by the traffic's own unique
        effective distances (already sorted and deduplicated), so only
        those few values are converted to lines and sorted."""
        tr = self.traffic
        lines, to_bin = np.unique(
            tr.eff_unique / self.line_bytes, return_inverse=True)
        bins = to_bin[tr.eff_index]
        mass = np.bincount(bins, weights=self.to_l2, minlength=lines.size)
        keep = mass > 0
        store = tr.store_mask
        return (
            SparseReuseProfile(distances=lines[keep], weights=mass[keep]),
            lines[bins[store]], self.to_l2[store], tr.region[store],
        )

    def sharp_l2(self, l2_bytes: Sequence[int]) -> tuple[FloatArray, FloatArray]:
        """The sharp fully-associative Mattson criterion at every L2
        size of ``l2_bytes``: a touch misses iff its reuse distance is
        at least the capacity; a missing store is written back unless
        its region stays resident.

        Along the axis sorted by capacity the written-back store
        classes form nested sets: class ``c`` is written at sorted
        position ``j`` iff ``j < k[c]``, with ``k[c]`` the number of
        capacities its distance reaches and its region exceeds.  Each
        distinct set is summed once, over the same classes in the same
        order as a per-size mask, and shared by the sizes it covers."""
        profile, store_dist, store_weights, store_region = self._sharp_profile
        l2_eff = np.asarray(l2_bytes, dtype=np.float64) * CAPACITY_FACTOR
        cap_lines = l2_eff / self.line_bytes
        misses = profile.misses_for_capacities(cap_lines)
        order = np.argsort(l2_eff, kind="stable")
        k = np.minimum(
            np.searchsorted(cap_lines[order], store_dist, side="right"),
            np.searchsorted(l2_eff[order], store_region, side="left"),
        )
        # leaving[j]: classes whose last written position is j - 1.
        leaving = np.bincount(k, minlength=order.size + 1).tolist()
        writebacks = np.empty(order.size)
        total = 0.0
        for j, i in enumerate(order.tolist()):
            if j == 0 or leaving[j]:
                written = k > j
                total = float(store_weights[written].sum())
            writebacks[i] = total
        return misses, writebacks


def model_counts(
    phases: list[PhaseModel], config: SystemConfig
) -> tuple[float, dict[str, int], dict[str, int], int]:
    """The L2-independent part of :func:`stats_from_model`:
    ``(issue_cycles, instrs, elems, flops)``, with the counts keyed like
    :class:`SimStats`' and issue cycles summed in a fixed order."""
    lat = config.latency_model()
    instr_counts: dict[OpClass, int] = {}
    elem_counts: dict[OpClass, int] = {}
    flops = 0
    for ph in phases:
        for c, n in ph.instrs.items():
            instr_counts[c] = instr_counts.get(c, 0) + n
        for c, n in ph.elems.items():
            elem_counts[c] = elem_counts.get(c, 0) + n
        flops += ph.flops
    issue = 0.0
    for c, n in instr_counts.items():
        issue += lat.batch_issue_cycles(c, n, elem_counts.get(c, 0))
    return (
        issue,
        {c.value: n for c, n in instr_counts.items()},
        {c.value: n for c, n in elem_counts.items()},
        flops,
    )


def stats_from_model(
    phases: list[PhaseModel],
    config: SystemConfig,
    label: str = "",
) -> SimStats:
    """Assemble :class:`SimStats` from phase models and a configuration.

    Uses the same latency and stall models as the trace-driven
    simulator, so model-based and trace-based results are directly
    comparable (the validation tests rely on this).
    """
    hstats = evaluate_hierarchy(
        phases,
        config.l1_kb * 1024,
        config.l2_mb * 1024 * 1024,
        config.line_bytes,
    )
    issue, instrs, elems, flops = model_counts(phases, config)
    l2_stall, dram_stall = config.memory_timings().stall_cycles(
        hstats.l1.misses, hstats.l2.misses, hstats.l2.writebacks
    )
    return SimStats(
        freq_ghz=config.freq_ghz,
        issue_cycles=issue,
        l2_stall_cycles=l2_stall,
        dram_stall_cycles=dram_stall,
        instrs=instrs,
        elems=elems,
        flops=flops,
        hierarchy=hstats,
        label=label or config.describe(),
    )


def lines_of(nbytes: float, line_bytes: int = LINE) -> float:
    """Expected distinct cache lines covering ``nbytes`` of data."""
    return nbytes / line_bytes


def lines_per_access(elems: int, stride_bytes: int, line_bytes: int = LINE) -> float:
    """Expected lines touched by one vector access of ``elems`` elements.

    Sub-line strides touch ``span / line`` lines in expectation (at
    least one), where ``span`` runs from the first element's start to
    the last element's end; accesses whose element stride reaches a
    full line touch one line per element.
    """
    if elems <= 0:
        return 0.0
    if stride_bytes >= line_bytes:
        return float(elems)
    span = (elems - 1) * stride_bytes + 4
    return max(1.0, span / line_bytes)
