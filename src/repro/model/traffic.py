"""Closed-form cache-traffic modeling for full network layers.

A full convolutional layer executes on the order of 1e8-1e9 dynamic
vector instructions — far beyond what even a sampled line-by-line cache
simulation can enumerate per sweep point.  The analytical models in
this package therefore describe each kernel phase as

- **exact instruction counts** per opcode class (closed forms mirroring
  the kernel loop structure, validated instruction-for-instruction
  against functional traces in the test suite), and
- a set of :class:`TrafficClass` records: groups of cache-line touches
  that share a *reuse distance* — the number of distinct bytes touched
  between consecutive uses of a line, derived from the kernel's loop
  volumes.

The classical stack-distance criterion (Mattson et al.; the same one
:mod:`repro.sim.stackdist` measures empirically) then decides, for any
cache capacity, which classes hit: an access whose reuse distance
exceeds the capacity misses.  This is what turns the paper's co-design
sweep (vector length x L2 size) into an O(1) evaluation per point while
preserving the effects that drive its findings — filter-panel reuse
outgrowing the L2 as VLEN grows (Table 1), transformed-tensor streaming
(Table 2), and the V-plane/filter-slab reuse that saturates at 64 MB
for VGG16 and 256 MB for YOLOv3 (Figures 3/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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


@dataclass(frozen=True)
class TrafficClass:
    """A group of cache-line touches sharing one reuse distance.

    Attributes:
        name: array/role label for reports (e.g. "V plane re-read").
        accesses: line touches in the group (one vector memory
            instruction touches each line at most once).
        distance: reuse distance in bytes at the moment of the touch;
            ``COLD`` for first touches.
        is_store: whether the touches are writes (writeback modeling).
        region: total size in bytes of the array region the class
            belongs to.  A dirty line is written back only if its
            region does not stay resident in the L2 (streaming stores);
            the default (infinite) means "always written back on miss".
        dilution: set-conflict factor for power-of-two strided access
            patterns: a stride of ``s`` lines concentrates the class
            into ``1/s`` of a set-indexed cache's sets, shrinking the
            effective capacity by ``s`` (validated against the exact
            set-associative simulator in the test suite).
    """

    name: str
    accesses: float
    distance: float
    is_store: bool = False
    region: float = math.inf
    dilution: float = 1.0

    def __post_init__(self) -> None:
        if self.accesses < 0:
            raise ConfigError(f"negative accesses in traffic class {self.name}")
        if self.distance < 0:
            raise ConfigError(f"negative distance in traffic class {self.name}")


@dataclass
class PhaseModel:
    """One kernel phase: exact instruction counts plus traffic classes."""

    name: str
    instrs: dict[OpClass, int] = field(default_factory=dict)
    elems: dict[OpClass, int] = field(default_factory=dict)
    traffic: list[TrafficClass] = field(default_factory=list)

    def add_instr(self, opclass: OpClass, count: int, elems_per: int) -> None:
        if count < 0 or elems_per < 0:
            raise ConfigError(f"negative instruction count in phase {self.name}")
        self.instrs[opclass] = self.instrs.get(opclass, 0) + count
        self.elems[opclass] = self.elems.get(opclass, 0) + count * elems_per

    def add_traffic(
        self,
        name: str,
        accesses: float,
        distance: float,
        is_store: bool = False,
        region: float = math.inf,
        dilution: float = 1.0,
    ) -> None:
        if accesses > 0:
            self.traffic.append(
                TrafficClass(name, accesses, distance, is_store, region, dilution)
            )

    @property
    def flops(self) -> int:
        return sum(
            FLOPS_PER_ELEM.get(c, 0) * e for c, e in self.elems.items()
        )

    @property
    def total_line_accesses(self) -> float:
        return sum(t.accesses for t in self.traffic)


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
    for ph in phases:
        for t in ph.traffic:
            eff = t.distance * t.dilution
            p1 = _hit_probability(eff, l1_eff, sharpness)
            p2 = _hit_probability(eff, l2_eff, sharpness)
            l1_acc += t.accesses
            to_l2 = t.accesses * (1.0 - p1)
            l1_miss += to_l2
            l2_acc += to_l2
            missed = to_l2 * (1.0 - p2)
            l2_miss += missed
            if t.is_store and t.region > l2_eff:
                wb += missed
    l1.accesses = int(round(l1_acc))
    l1.misses = int(round(l1_miss))
    l2.accesses = int(round(l2_acc))
    l2.misses = int(round(l2_miss))
    l2.writebacks = int(round(wb))
    return HierarchyStats(l1=l1, l2=l2, line_bytes=line_bytes)


def _ordered_sum(values: np.ndarray) -> float:
    """Sum in array order with sequential accumulation.

    ``np.cumsum`` accumulates left-to-right, matching a reference
    ``+=`` loop bit-for-bit; ``np.sum`` pairwise-sums and may round
    differently.  Bit-identity to :func:`evaluate_hierarchy` depends on
    this.
    """
    return float(values.cumsum()[-1]) if values.size else 0.0


@dataclass(frozen=True)
class CondensedTraffic:
    """Array form of a phase list's traffic, reproducing
    :func:`evaluate_hierarchy` bit-identically in two halves.

    One row per traffic class, in the exact order the reference loop
    visits them (phase order, then class order within the phase).
    :meth:`l1_split` resolves the L1 once; :meth:`L1Split.smooth_l2`
    then applies the L2 half of the reference at any capacity.  Two
    properties make the vectorized halves produce the same bits as the
    scalar reference:

    - The hit-probability power is the one operation whose NumPy SIMD
      code path does *not* round like scalar ``**``; effective
      distances are therefore deduplicated (network layers share a few
      hundred distinct reuse distances across hundreds of thousands of
      classes) and :func:`_hit_probability` runs as scalar math once
      per unique distance, gathered back through the inverse index.
    - Accumulations run through :func:`_ordered_sum`, which preserves
      the reference loop's left-to-right addition order.

    Elementwise ``+ - * /`` are single IEEE-754 operations and match
    their scalar counterparts exactly.
    """

    accesses: np.ndarray
    eff_unique: np.ndarray
    eff_index: np.ndarray
    store_mask: np.ndarray
    region: np.ndarray

    @classmethod
    def from_phases(cls, phases: list[PhaseModel]) -> "CondensedTraffic":
        # Bulk-extract the class fields: GEMM-heavy layers reach the
        # hundreds of thousands of classes.
        classes = [t for ph in phases for t in ph.traffic]
        n = len(classes)
        accesses = np.fromiter(
            (t.accesses for t in classes), dtype=np.float64, count=n)
        eff = np.fromiter(
            (t.distance * t.dilution for t in classes),
            dtype=np.float64, count=n)
        store_mask = np.fromiter(
            (t.is_store for t in classes), dtype=bool, count=n)
        region = np.fromiter(
            (t.region for t in classes), dtype=np.float64, count=n)
        eff_unique, eff_index = np.unique(eff, return_inverse=True)
        for arr in (accesses, eff_unique, eff_index, store_mask, region):
            arr.setflags(write=False)
        return cls(
            accesses=accesses, eff_unique=eff_unique, eff_index=eff_index,
            store_mask=store_mask, region=region,
        )

    @property
    def n_classes(self) -> int:
        return int(self.accesses.size)

    def _hit_probabilities(self, capacity: float) -> np.ndarray:
        """Per-class smoothed hit probability at an effective capacity."""
        return np.array(
            [_hit_probability(d, capacity, SHARPNESS)
             for d in self.eff_unique.tolist()],
            dtype=np.float64,
        )[self.eff_index]

    def l1_split(self, l1_bytes: int, line_bytes: int = LINE) -> "L1Split":
        """The L1 half of :func:`evaluate_hierarchy` at ``l1_bytes``."""
        p1 = self._hit_probabilities(l1_bytes * CAPACITY_FACTOR)
        to_l2 = self.accesses * (1.0 - p1)
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
    answerable at any L2 capacity under either L2 criterion.

    ``to_l2`` holds, per condensed class of ``traffic``, the line
    touches that miss the L1 and go on to the L2; ``accesses`` and
    ``misses`` are the rounded L1 counters (the reference's L2 access
    count equals its L1 miss count).  Both criteria return unrounded
    ``(misses, writebacks)`` of the L2.
    """

    traffic: CondensedTraffic
    to_l2: np.ndarray
    accesses: int
    misses: int
    line_bytes: int

    def smooth_l2(self, l2_bytes: int) -> tuple[float, float]:
        """The reference's smoothed criterion — bit-identical to
        :func:`evaluate_hierarchy`, O(unique distances) scalar work."""
        tr = self.traffic
        l2_eff = l2_bytes * CAPACITY_FACTOR
        missed = self.to_l2 * (1.0 - tr._hit_probabilities(l2_eff))
        return (
            _ordered_sum(missed),
            _ordered_sum(missed[tr.store_mask & (tr.region > l2_eff)]),
        )

    @cached_property
    def _sharp_profile(
        self,
    ) -> tuple[SparseReuseProfile, np.ndarray, np.ndarray, np.ndarray]:
        """The sharp criterion's view of ``to_l2``, built on first use:
        its stack-distance profile in lines, plus the distance, weight
        and region of every store class (for writebacks)."""
        tr = self.traffic
        dist_lines = (tr.eff_unique / self.line_bytes)[tr.eff_index]
        store = tr.store_mask
        return (
            SparseReuseProfile.from_distances(dist_lines, self.to_l2),
            dist_lines[store], self.to_l2[store], tr.region[store],
        )

    def sharp_l2(self, l2_bytes: int) -> tuple[float, float]:
        """The sharp fully-associative Mattson criterion: a touch misses
        iff its reuse distance is at least the capacity; a missing store
        is written back unless its region stays resident."""
        profile, store_dist, store_weights, store_region = self._sharp_profile
        l2_eff = l2_bytes * CAPACITY_FACTOR
        cap_lines = l2_eff / self.line_bytes
        written = (store_dist >= cap_lines) & (store_region > l2_eff)
        return (
            profile.misses_for_capacity(cap_lines),
            float(store_weights[written].sum()),
        )


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

    Unit-stride accesses touch ``ceil`` of their span; accesses whose
    element stride reaches a full line touch one line per element.
    """
    if elems <= 0:
        return 0.0
    if stride_bytes >= line_bytes:
        return float(elems)
    span = (elems - 1) * stride_bytes + 4
    return max(1.0, span / line_bytes)
