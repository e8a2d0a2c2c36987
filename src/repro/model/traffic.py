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
  channel blocks) while validating and storing only the pattern.

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
column rows in order.  Condensation is the record/replay path of the
co-design sweep: it reproduces the reference's rounded counters in two
halves (the L1 once, then the L2 across an axis of capacities).  A
layer has hundreds of thousands of classes but at most a few dozen
distinct effective distances and a few regions, so each append keeps
only its validated pattern, and the counters are summed from
per-(distance, store, region) group totals.  :class:`CondensedTraffic`
gathers one layer's appends; :class:`ColumnTraffic` condenses all the
distinct layers of a VLEN column in one pass over their patterns,
:class:`ColumnSplit` resolves them at the L1 and answers every layer
at every L2 size at once, and :class:`L1Split` is one layer's row (a
single layer is the one-layer column).  A rigorous floating-point
error bound certifies that each rounded count equals ``rint`` of the
reference's class-by-class sum of its layer; a count the bound cannot
settle falls back to that sum over the layer's laid-out classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, NamedTuple, Sequence, Union

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError
from repro.isa import FLOPS_PER_ELEM, OpClass
from repro.obs.metrics import METRICS
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
IntArray = npt.NDArray[np.int64]

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


_DTYPES = (np.float64, np.float64, bool, np.float64, np.float64)


class _Run(NamedTuple):
    """One append of traffic classes, validated and without zero-access
    rows, that repeats ``repeat`` times in a row.  Its pattern has
    ``size`` classes; each of its ``fields`` (in :class:`TrafficColumns`
    order) is a read-only array of ``size`` values, or one value that
    every class of the pattern shares."""

    fields: tuple[Any, ...]
    size: int
    repeat: int

    def pattern(self, i: int) -> npt.NDArray[Any]:
        """Field ``i`` of the pattern as an array of ``size`` values."""
        value = self.fields[i]
        if isinstance(value, np.ndarray):
            return value
        return np.full(self.size, value, dtype=_DTYPES[i])


def _column(runs: Sequence[_Run], i: int) -> npt.NDArray[Any]:
    """Column ``i`` of :class:`TrafficColumns` over the classes of
    ``runs``, each run repeated, in order."""
    return _tiled([(r.pattern(i), r.repeat) for r in runs], _DTYPES[i])


def _laid_out(runs: Sequence[_Run]) -> TrafficColumns:
    """The classes of ``runs``, each run repeated, in order."""
    return TrafficColumns(*(_column(runs, i) for i in range(len(_DTYPES))))


def _patterns(
    runs: Sequence[_Run], values: Sequence[Any], dtype: npt.DTypeLike,
) -> npt.NDArray[Any]:
    """One row per pattern class of ``runs`` (each pattern once, runs in
    order), run ``k``'s rows holding ``values[k]``: an array of the
    run's ``size`` values or one value for all of them."""
    if values and all(isinstance(v, np.ndarray) for v in values):
        return np.concatenate(values, dtype=dtype)
    out = np.empty(sum(r.size for r in runs), dtype=dtype)
    start = 0
    for r, value in zip(runs, values):
        out[start:start + r.size] = value
        start += r.size
    return out


def _pattern_eff(runs: Sequence[_Run]) -> tuple[FloatArray, IndexArray]:
    """The sorted distinct effective distances ``distance * dilution``
    of ``runs`` and each pattern row's position among them: one
    ``np.unique`` over the patterns, never over the repeated classes."""
    eff = (_patterns(runs, [r.fields[1] for r in runs], np.float64)
           * _patterns(runs, [r.fields[4] for r in runs], np.float64))
    eff_unique = _frozen(np.unique(eff))
    return eff_unique, np.searchsorted(eff_unique, eff)


def _lowest(values: Values) -> float:
    """The least of a field's values; NaN if any is NaN."""
    if isinstance(values, np.ndarray):
        return np.minimum.reduce(values)
    return values


def _highest(values: Values) -> float:
    """The greatest of a field's values; NaN if any is NaN."""
    if isinstance(values, np.ndarray):
        return np.maximum.reduce(values)
    return values


#: One scalar-appended traffic class, pending conversion to columns.
_Row = tuple[float, float, bool, float, float]


@dataclass(eq=False)
class PhaseModel:
    """One kernel phase: exact instruction counts plus traffic classes.

    Traffic is appended through :meth:`add_traffic` and read back as
    :attr:`traffic` columns.  Scalar appends are buffered as rows and
    converted to one run on the next array append, so models that
    append class by class stay cheap; array appends are kept as runs
    (their scalar fields as one value each), condensed together by
    :meth:`CondensedTraffic.from_phases` and laid out only when read.
    Reading changes nothing: the columns are laid out afresh on each
    read, and condensation sees the same runs either way.
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
        in order (fields of other lengths raise :class:`ConfigError`).
        The classes are appended ``repeat`` times in a row; validation
        and dropping run once, on the single copy, and only the array
        fields are stored as arrays.  ``name`` labels the classes in
        error messages.  Classes without accesses are dropped; NaN,
        infinite or negative accesses, NaN or negative distances, NaN
        regions, NaN, infinite or non-positive dilutions, and a
        ``repeat`` below 1 raise :class:`ConfigError` naming the field,
        at the append.  A ``-0.0`` distance is stored as ``+0.0``, so
        the distinct distances do not depend on the order of appends.
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
            if not (0.0 <= acc < math.inf and dist >= 0.0 and reg == reg
                    and 0.0 < dil < math.inf):
                raise self._invalid(name, acc, dist, reg, dil)
            if acc > 0.0:
                # Adding +0.0 turns -0.0 into +0.0 and keeps every
                # other value.
                self._rows.append((acc, dist + 0.0, bool(is_store), reg, dil))
            return
        # A run.  Its array fields give the pattern's length (a
        # one-element array broadcasts); every other field stays one
        # value that all of the pattern's classes share.
        fields: list[Any] = [accesses, distance, is_store, region, dilution]
        size = 1
        for v in fields:
            if isinstance(v, np.ndarray):
                if v.ndim > 1 or (v.size not in (1, size) and size != 1):
                    raise ConfigError(
                        f"traffic class {name!r} in phase {self.name!r}: "
                        f"fields must be scalars or 1-D arrays of one "
                        f"length, got shape {v.shape}")
                if v.size != 1:
                    size = v.size
        if size == 0:
            return
        for i, (v, dtype) in enumerate(zip(fields, _DTYPES)):
            if isinstance(v, np.ndarray):
                v = np.asarray(v, dtype=dtype)
                fields[i] = v.reshape(size) if v.size == size else v.item()
            else:
                fields[i] = bool(v) if dtype is bool else float(v)
        acc, dist, store, reg, dil = fields
        acc_lo = _lowest(acc)
        # The reductions propagate NaN, which fails every comparison.
        if not (0.0 <= acc_lo and _highest(acc) < math.inf
                and _lowest(dist) >= 0.0 and not math.isnan(_lowest(reg))
                and 0.0 < _lowest(dil) and _highest(dil) < math.inf):
            raise self._invalid(name, acc, dist, reg, dil)
        keep: BoolArray | None = None
        if acc_lo == 0.0:
            if not isinstance(acc, np.ndarray):
                return
            keep = acc > 0.0
            size = int(np.count_nonzero(keep))
            if not size:
                return
        self._flush_rows()
        self._runs.append(_Run(tuple(
            _frozen(v[keep] if keep is not None else v.copy())
            if isinstance(v, np.ndarray) else v
            for v in (acc, dist + 0.0, store, reg, dil)), size, repeat))

    def _invalid(
        self, name: str, accesses: Values, distance: Values, region: Values,
        dilution: Values,
    ) -> ConfigError:
        """The error for the first invalid field of a rejected append."""
        for what, values, need in (
            ("accesses", accesses, "finite and non-negative"),
            ("distance", distance, "non-negative"),
            ("region", region, "a number"),
            ("dilution", dilution, "finite and positive"),
        ):
            arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
            ok = {"finite and positive": np.isfinite(arr) & (arr > 0.0),
                  "finite and non-negative": np.isfinite(arr) & (arr >= 0.0),
                  "non-negative": arr >= 0.0,
                  "a number": arr == arr}[need]
            if not ok.all():
                return ConfigError(
                    f"traffic class {name!r} in phase {self.name!r}: {what} "
                    f"must be {need}, got {arr[~ok][0]}")
        return ConfigError(f"invalid traffic class {name!r} in phase {self.name!r}")

    def _rows_run(self) -> _Run:
        """The buffered scalar appends as one run."""
        return _Run(tuple(
            _frozen(np.array(col, dtype=dtype))
            for col, dtype in zip(zip(*self._rows), _DTYPES)),
            len(self._rows), 1)

    def _flush_rows(self) -> None:
        if self._rows:
            self._runs.append(self._rows_run())
            self._rows.clear()

    def _all_runs(self) -> list[_Run]:
        """Every run appended so far, the buffered scalar appends as the
        last, without changing the phase."""
        return self._runs + [self._rows_run()] if self._rows else self._runs

    @property
    def traffic(self) -> TrafficColumns:
        """All traffic classes appended so far, in append order."""
        return _laid_out(self._all_runs())

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
    cols = _laid_out([r for ph in phases for r in ph._all_runs()])
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
    differently.  The per-class fallbacks of :class:`L1Split` rely on
    this to reproduce :func:`evaluate_hierarchy`'s sums.
    """
    return float(values.cumsum()[-1]) if values.size else 0.0


def _miss_fractions(eff_unique: Sequence[float], capacity: float) -> FloatArray:
    """Smoothed miss fraction ``1 - p`` of each distinct effective
    distance at an effective capacity, as scalar math per distance."""
    hit = np.array(
        [_hit_probability(d, capacity, SHARPNESS) for d in eff_unique],
        dtype=np.float64,
    )
    return 1.0 - hit


def _effective(l2_bytes: Sequence[int]) -> FloatArray:
    """Effective capacities of L2 byte sizes, as the reference forms them."""
    return np.asarray(l2_bytes, dtype=np.float64) * CAPACITY_FACTOR


#: Unit roundoff of IEEE-754 binary64 (round to nearest).
_UNIT_ROUNDOFF = 2.0**-53

#: Factor on a computed rounding bound covering the few roundings of
#: computing the bound itself (each shrinks it by at most ``1 - u``).
_BOUND_SLACK = 1.0 + 2.0**-20

#: Counter bumped once per per-class fallback (an L1 split, or one L2
#: size of one layer) whose certificate failed.
FALLBACK_COUNTER = "model.replay_fallbacks"
_M_FALLBACKS = METRICS.counter(
    FALLBACK_COUNTER, "replay counts whose rounding certificate failed "
    "and were recomputed class by class")


def _certified(estimates: FloatArray, factor: FloatArray) -> tuple[IntArray, BoolArray]:
    """``(rint(estimates - B), ok)`` with ``B = factor * estimates``:
    where ``ok``, ``rint`` of any float within ``B`` of the estimate is
    that count (see :attr:`CondensedTraffic.error_factor`)."""
    bound = estimates * factor
    lo = np.rint(estimates - bound)
    return lo.astype(np.int64), lo == np.rint(estimates + bound)


def _error_factor(terms: npt.ArrayLike) -> Any:
    """:attr:`CondensedTraffic.error_factor` of sums whose every term
    passes through at most ``terms`` roundings, elementwise."""
    k = np.asarray(terms, dtype=np.float64)
    gamma = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
    return 2.0 * gamma / (1.0 - gamma) * _BOUND_SLACK


@dataclass(frozen=True)
class CondensedTraffic:
    """One layer's traffic (a phase list's), condensed into per-group
    access totals that reproduce :func:`evaluate_hierarchy`'s rounded
    counters.

    A group is one ``(effective distance, is_store, region)`` triple:
    a network layer has hundreds of thousands of classes but at most 14
    distinct effective distances (``distance * dilution``) in VGG16 and
    YOLOv3 and at most 6 regions, so at most a few hundred groups.
    ``totals[u, s, r]`` sums the accesses of the classes at distance
    ``eff_unique[u]``, store flag ``s`` and region ``region_unique[r]``.
    :meth:`from_phases` only gathers the appends' runs (each validated
    pattern once, with its ``repeat``); the condensation is the
    one-layer case of :class:`ColumnTraffic`, run on first read here
    and once per VLEN column by a recording.

    Every criterion is linear in the accesses and takes one scalar per
    distance (the hit probability, or the sharp threshold) and exact
    comparisons per region, so its sums are sums of group terms;
    :attr:`error_factor` certifies that the rounded counts equal those
    of the reference's class-by-class sums.

    The per-class columns of the reference's loop order (phase order,
    then append order) stay available as lazily laid-out properties —
    ``accesses``, ``eff_index`` (exactly ``np.unique(distance *
    dilution, return_inverse=True)[1]``), ``store_mask`` and ``region``
    — for the fallbacks and the tests; a certified replay reads none of
    them.
    """

    runs: tuple[_Run, ...]

    @classmethod
    def from_phases(cls, phases: list[PhaseModel]) -> CondensedTraffic:
        return cls(tuple(run for ph in phases for run in ph._all_runs()))

    @cached_property
    def _alone(self) -> ColumnTraffic:
        return ColumnTraffic.condense((self,))

    @property
    def eff_unique(self) -> FloatArray:
        return self._alone.eff_unique

    @property
    def region_unique(self) -> FloatArray:
        return self._alone.region_unique

    @cached_property
    def totals(self) -> FloatArray:
        col = self._alone
        totals = np.zeros((col.eff_unique.size, 2, col.region_unique.size))
        totals.reshape(-1)[col.bins] = col.bin_totals
        return _frozen(totals)

    @property
    def n_classes(self) -> int:
        return sum(r.size * r.repeat for r in self.runs)

    @cached_property
    def accesses(self) -> FloatArray:
        return _column(self.runs, 0)

    @cached_property
    def store_mask(self) -> BoolArray:
        return _column(self.runs, 2)

    @cached_property
    def region(self) -> FloatArray:
        return _column(self.runs, 3)

    @cached_property
    def eff_index(self) -> IndexArray:
        positions = _pattern_eff(self.runs)[1]
        parts: list[tuple[IndexArray, int]] = []
        start = 0
        for r in self.runs:
            parts.append((positions[start:start + r.size], r.repeat))
            start += r.size
        return _tiled(parts, np.intp)

    @cached_property
    def _eff_list(self) -> list[float]:
        return self.eff_unique.tolist()  # type: ignore[no-any-return]

    @property
    def error_factor(self) -> float:
        """``c`` such that every sum this traffic's counters round lies
        within ``B = c * S`` of its grouped estimate ``S``.

        Let ``E`` be the exact real sum of one counter's terms: the
        non-negative products ``a * m1 [* m2]`` of each class's
        accesses with the float miss fractions (or 0/1 thresholds) of
        its distance, every class filtered by the same exact
        comparisons.  The reference sums — ``evaluate_hierarchy``'s
        ordered loop and ``_ordered_sum``, the sharp rule's ``bincount``
        plus suffix ``cumsum``, a pairwise ``.sum()`` — and the grouped
        estimate each pass every term through at most ``K = n + runs +
        groups + 4`` roundings: at most two products, the additions of
        a sum of at most ``n`` terms (any summation tree), one
        ``* repeat`` and a sum over at most ``groups`` terms.  With all
        terms non-negative, each result is within ``gamma_K * E`` of
        ``E``, ``gamma_k = k u / (1 - k u)`` (Higham, *Accuracy and
        Stability of Numerical Algorithms*, Lemma 3.3 and §4.2).  So a
        reference ``R`` and the estimate ``S`` differ by at most ``2
        gamma_K E <= 2 gamma_K S / (1 - gamma_K) = c S``; the factor is
        inflated by ``_BOUND_SLACK`` for its own rounding.  Since
        rounding to nearest is monotone and ``R`` is a float,
        ``fl(S - B) <= R <= fl(S + B)``; ``rint`` is monotone too, so if
        ``rint(fl(S - B)) == rint(fl(S + B))`` that integer is
        ``rint(R)`` (:func:`_certified`).
        """
        return float(self._alone.error_factors[0])

    def l1_split(self, l1_bytes: int, line_bytes: int = LINE) -> L1Split:
        """The L1 half of :func:`evaluate_hierarchy` at ``l1_bytes``, as
        the one layer of a one-layer column."""
        return L1Split(self._alone.l1_split(l1_bytes, line_bytes), 0)


class _Groups(NamedTuple):
    """A column's groups, layer-major: each one's layer, distance index,
    store flag, region index and access total."""

    layer: IndexArray
    eff: IndexArray
    store: BoolArray
    region: IndexArray
    total: FloatArray


@dataclass(frozen=True, eq=False)
class ColumnTraffic:
    """The condensed traffic of several layers (a VLEN column's distinct
    layers), formed in one pass.

    ``eff_unique`` and ``region_unique`` are the distinct effective
    distances and regions of all the layers.  A bin is one (layer,
    distance, store, region) quadruple, flat-indexed in that order;
    ``bins`` holds, ascending, the bins that receive accesses — the
    column's groups, layer-major — and ``bin_totals`` their totals.
    :meth:`condense` concatenates every layer's patterns, each row
    tagged with its layer, and makes one ``np.unique`` of the
    distances, one of the regions, one of the rows' bins and one
    ``bincount``.  A bin sums only its own layer's rows, in that
    layer's pattern order, so a layer's totals are bit for bit its
    :attr:`CondensedTraffic.totals`, and every per-layer sum is a
    segment sum over the layer's groups.
    """

    layers: tuple[CondensedTraffic, ...]
    eff_unique: FloatArray
    region_unique: FloatArray
    bins: IndexArray
    bin_totals: FloatArray

    @classmethod
    def condense(cls, layers: Sequence[CondensedTraffic]) -> ColumnTraffic:
        layers = tuple(layers)
        runs = [r for tr in layers for r in tr.runs]
        eff_unique, eff_index = _pattern_eff(runs)
        region = _patterns(runs, [r.fields[3] for r in runs], np.float64)
        region_unique = np.unique(region)
        layer = np.repeat(np.arange(len(layers)),
                          [sum(r.size for r in tr.runs) for tr in layers])
        flat = (((layer * eff_unique.size + eff_index) * 2
                 + _patterns(runs, [r.fields[2] for r in runs], np.intp))
                * region_unique.size + np.searchsorted(region_unique, region))
        bins, row_bin = np.unique(flat, return_inverse=True)
        weights = _patterns(
            runs, [r.fields[0] if r.repeat == 1 else r.fields[0] * r.repeat
                   for r in runs], np.float64)
        return cls(layers, eff_unique, _frozen(region_unique), _frozen(bins),
                   _frozen(np.bincount(row_bin, weights=weights,
                                       minlength=bins.size)))

    @cached_property
    def _groups(self) -> _Groups:
        layer, eff, store, region = np.unravel_index(self.bins, (
            len(self.layers), self.eff_unique.size, 2, self.region_unique.size))
        return _Groups(layer, eff, store.astype(bool), region, self.bin_totals)

    def _per_layer(self, values: FloatArray) -> FloatArray:
        """Per layer, the sum of ``values``' rows (one per group) over
        its groups, shaped ``(layers, *values.shape[1:])``."""
        bounds = np.searchsorted(self._groups.layer,
                                 np.arange(len(self.layers) + 1))
        some = bounds[1:] > bounds[:-1]
        out = np.zeros((len(self.layers), *values.shape[1:]))
        if some.any():
            out[some] = np.add.reduceat(values, bounds[:-1][some], axis=0)
        return out

    @cached_property
    def error_factors(self) -> FloatArray:
        """Each layer's :attr:`CondensedTraffic.error_factor`: ``K``
        counts the layer's own classes, runs and groups (its distinct
        distances x 2 x its distinct regions), since its sums run over
        its own groups only."""
        g = self._groups
        distinct = []
        for index, size in ((g.eff, self.eff_unique.size),
                            (g.region, self.region_unique.size)):
            seen = np.zeros((len(self.layers), size), dtype=bool)
            seen[g.layer, index] = True
            distinct.append(np.count_nonzero(seen, axis=1))
        own = np.array([tr.n_classes + len(tr.runs) for tr in self.layers],
                       dtype=np.int64)
        return _frozen(_error_factor(own + distinct[0] * 2 * distinct[1] + 4))

    def l1_split(self, l1_bytes: int, line_bytes: int = LINE) -> ColumnSplit:
        """The L1 half of :func:`evaluate_hierarchy` at ``l1_bytes`` for
        every layer, with the miss fraction computed once per distinct
        distance of the column; a layer whose certificate fails takes
        both counters from its laid-out classes."""
        l1_eff = l1_bytes * CAPACITY_FACTOR
        g = self._groups
        to_l2 = g.total * _miss_fractions(self.eff_unique.tolist(), l1_eff)[g.eff]
        counts, ok = _certified(
            self._per_layer(np.stack([g.total, to_l2], axis=1)),
            self.error_factors[:, None])
        accesses, misses = np.ascontiguousarray(counts.T)
        split = ColumnSplit(self, l1_eff, line_bytes, _frozen(to_l2),
                            accesses, misses)
        for k in np.flatnonzero(~ok.all(axis=1)).tolist():
            _M_FALLBACKS.inc()
            layer = L1Split(split, k)
            accesses[k] = round(_ordered_sum(layer.traffic.accesses))
            misses[k] = round(_ordered_sum(layer.to_l2))
        _frozen(accesses)
        _frozen(misses)
        return split


@dataclass(frozen=True, eq=False)
class ColumnSplit:
    """A column's condensed traffic resolved at one L1 size, answerable
    over an axis of L2 capacities under either L2 criterion.

    ``l1_eff`` is the L1's effective capacity, ``to_l2`` each group's
    line touches that miss the L1 and go on to the L2, and ``accesses``
    and ``misses`` each layer's rounded L1 counters (the reference's L2
    access count equals its L1 miss count).

    Both criteria take L2 byte sizes in any order and return the L2's
    rounded ``(misses, writebacks)`` as ``int64`` arrays shaped (layers,
    sizes), each row equal to that layer's ``evaluate_hierarchy``
    (smooth) or scalar sharp rule counters, size by size.  The
    estimates of every layer and size come from one :meth:`l2_sums`;
    each is certified with its layer's error factor, and only a (layer,
    size) pair whose certificate fails runs that layer's reference over
    its laid-out classes, bumping ``model.replay_fallbacks`` once.
    """

    traffic: ColumnTraffic
    l1_eff: float
    line_bytes: int
    to_l2: FloatArray
    accesses: IntArray
    misses: IntArray

    def l2_sums(
        self, l2_bytes: Sequence[int], sharp: bool,
    ) -> tuple[FloatArray, FloatArray]:
        """Segment-summed estimates of every layer's unrounded L2
        ``(misses, writebacks)`` at every size of ``l2_bytes``, shaped
        (layers, sizes).  Smoothed, a group's miss fraction is the
        reference's scalar per distance and size; ``sharp``, a group
        misses iff its distance in lines reaches the capacity in lines.
        A missing store group is written back if its region exceeds the
        size."""
        l2_eff = _effective(l2_bytes)
        tr = self.traffic
        g = tr._groups
        if sharp:
            reach = ((tr.eff_unique / self.line_bytes)[g.eff][:, None]
                     >= l2_eff / self.line_bytes)
            missed = np.where(reach, self.to_l2[:, None], 0.0)
        else:
            eff = tr.eff_unique.tolist()
            miss = np.array([_miss_fractions(eff, c) for c in l2_eff.tolist()],
                            dtype=np.float64).reshape(l2_eff.size, len(eff))
            missed = self.to_l2[:, None] * miss.T[g.eff]
        written = g.store[:, None] & (tr.region_unique[g.region][:, None]
                                      > l2_eff)
        sums = tr._per_layer(
            np.concatenate([missed, np.where(written, missed, 0.0)], axis=1))
        return sums[:, :l2_eff.size], sums[:, l2_eff.size:]

    def smooth_l2(self, l2_bytes: Sequence[int]) -> tuple[IntArray, IntArray]:
        """The reference's smoothed criterion at every L2 size of
        ``l2_bytes``: per layer, the counters of
        :func:`evaluate_hierarchy`, size by size."""
        return self._counts(l2_bytes, self.l2_sums(l2_bytes, sharp=False),
                            L1Split._smooth_reference)

    def sharp_l2(self, l2_bytes: Sequence[int]) -> tuple[IntArray, IntArray]:
        """The sharp fully-associative Mattson criterion at every L2
        size of ``l2_bytes``: a touch misses iff its reuse distance is
        at least the capacity; a missing store is written back unless
        its region stays resident."""
        return self._counts(l2_bytes, self.l2_sums(l2_bytes, sharp=True),
                            L1Split._sharp_reference)

    def _counts(
        self, l2_bytes: Sequence[int], sums: tuple[FloatArray, FloatArray],
        reference: Callable[[L1Split, float], tuple[float, float]],
    ) -> tuple[IntArray, IntArray]:
        """Certified counts of ``sums``; a (layer, size) pair whose
        certificate fails takes both counts from ``reference`` over the
        layer's classes at the size's effective capacity."""
        factor = self.traffic.error_factors[:, None]
        (misses, m_ok), (writebacks, w_ok) = (_certified(s, factor) for s in sums)
        doubtful = np.argwhere(~(m_ok & w_ok)).tolist()
        if doubtful:
            l2_eff = _effective(l2_bytes).tolist()
            layers: dict[int, L1Split] = {}
            for k, i in doubtful:
                _M_FALLBACKS.inc()
                m, w = reference(layers.setdefault(k, L1Split(self, k)), l2_eff[i])
                misses[k, i], writebacks[k, i] = round(m), round(w)
        return misses, writebacks


@dataclass(frozen=True, eq=False)
class L1Split:
    """Layer ``row`` of a :class:`ColumnSplit`: its traffic resolved at
    the column's L1, with its rounded L1 ``accesses`` and ``misses``.

    ``l1_miss`` holds the L1 miss fraction of each of the layer's own
    distinct distances, ``group_to_l2`` each of its groups' line
    touches that go on to the L2 (shaped like ``traffic.totals``) and
    ``to_l2`` the same per laid-out class.  They are formed on first
    read, from the layer alone, for the fallbacks and the tests; the
    column's criteria read none of them.
    """

    column: ColumnSplit
    row: int

    @property
    def traffic(self) -> CondensedTraffic:
        return self.column.traffic.layers[self.row]

    @property
    def accesses(self) -> int:
        return int(self.column.accesses[self.row])

    @property
    def misses(self) -> int:
        return int(self.column.misses[self.row])

    @property
    def line_bytes(self) -> int:
        return self.column.line_bytes

    @cached_property
    def l1_miss(self) -> FloatArray:
        return _frozen(_miss_fractions(self.traffic._eff_list,
                                       self.column.l1_eff))

    @cached_property
    def group_to_l2(self) -> FloatArray:
        return _frozen(self.traffic.totals * self.l1_miss[:, None, None])

    @cached_property
    def to_l2(self) -> FloatArray:
        tr = self.traffic
        return _frozen(tr.accesses * self.l1_miss[tr.eff_index])

    def _smooth_reference(self, l2_eff: float) -> tuple[float, float]:
        """The smoothed rule at one effective capacity, class by class
        in the reference's order: unrounded (misses, writebacks)."""
        tr = self.traffic
        missed = self.to_l2 * _miss_fractions(tr._eff_list, l2_eff)[tr.eff_index]
        return (_ordered_sum(missed),
                _ordered_sum(missed[tr.store_mask & (tr.region > l2_eff)]))

    @cached_property
    def _sharp_profile(self) -> tuple[SparseReuseProfile, FloatArray]:
        """The sharp rule's stack-distance profile of ``to_l2`` and each
        class's distance in lines; the classes are binned by the few
        distinct effective distances, so no per-class array is sorted."""
        tr = self.traffic
        lines, to_bin = np.unique(
            tr.eff_unique / self.line_bytes, return_inverse=True)
        bins = to_bin[tr.eff_index]
        mass = np.bincount(bins, weights=self.to_l2, minlength=lines.size)
        keep = mass > 0
        return (SparseReuseProfile(distances=lines[keep], weights=mass[keep]),
                lines[bins])

    def _sharp_reference(self, l2_eff: float) -> tuple[float, float]:
        """The sharp rule at one effective capacity over the laid-out
        classes: unrounded (misses, writebacks)."""
        profile, lines = self._sharp_profile
        cap_lines = l2_eff / self.line_bytes
        tr = self.traffic
        written = tr.store_mask & (lines >= cap_lines) & (tr.region > l2_eff)
        return (profile.misses_for_capacity(cap_lines),
                float(self.to_l2[written].sum()))


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
