"""Reuse-distance (stack-distance) profiling.

One pass over an access stream yields the LRU stack-distance histogram,
from which the miss count of a fully-associative LRU cache of *any*
capacity follows directly: an access misses iff its reuse distance (the
number of distinct lines touched since the previous access to the same
line) is at least the capacity in lines.  This is the classical Mattson
et al. result and a standard, well-validated approximation for highly
associative caches like the paper's L2.

Two representations share that criterion:

- :class:`ReuseProfile` — the dense histogram an empirical pass over a
  line-ID stream produces (:func:`reuse_profile`, the Fenwick-tree
  O(N log N) algorithm);
- :class:`SparseReuseProfile` — a weighted, sorted (distance, weight)
  form with O(log N) capacity queries via precomputed suffix sums.  The
  co-design sweep's fast backend
  (:meth:`repro.model.traffic.ColumnSplit.sharp_l2`) applies the same
  threshold to per-distance group totals and builds one from the
  recorded L2-bound traffic classes only as the per-class reference of
  a size whose rounding it cannot certify; the dense form converts
  losslessly via :meth:`ReuseProfile.to_sparse`.

The test suite uses both to validate the exact set-associative
simulator and vice versa (differential and property-based campaigns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import ConfigError


class _Fenwick:
    """Fenwick tree over time slots, counting 'most recent' positions."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.tree = np.zeros(n + 1, dtype=np.int64)

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, i: int) -> int:
        """Sum of entries [0, i)."""
        s = 0
        while i > 0:
            s += int(self.tree[i])
            i -= i & (-i)
        return s


@dataclass(frozen=True)
class ReuseProfile:
    """Reuse-distance histogram of one access stream.

    ``histogram[d]`` counts accesses with stack distance exactly ``d``
    (in distinct lines); ``cold`` counts first-touch accesses, which
    miss in every finite cache.
    """

    histogram: np.ndarray
    cold: int
    total: int

    def misses_for_capacity(self, capacity_lines: int) -> int:
        """Misses of a fully-associative LRU cache with that capacity."""
        if not capacity_lines > 0:  # NaN fails every comparison
            raise ConfigError(f"capacity must be positive, got {capacity_lines}")
        if capacity_lines >= self.histogram.size:
            return self.cold
        return self.cold + int(self.histogram[capacity_lines:].sum())

    def miss_rate_for_capacity(self, capacity_lines: int) -> float:
        return (
            self.misses_for_capacity(capacity_lines) / self.total
            if self.total
            else 0.0
        )

    def miss_curve(self, capacities_lines: list[int]) -> dict[int, float]:
        """Miss rate for each capacity — the whole sweep from one pass."""
        return {c: self.miss_rate_for_capacity(c) for c in capacities_lines}

    def to_sparse(self) -> "SparseReuseProfile":
        """Lossless sparse form (cold accesses become infinite distance)."""
        idx = np.nonzero(self.histogram)[0]
        distances = idx.astype(np.float64)
        weights = self.histogram[idx].astype(np.float64)
        if self.cold:
            distances = np.append(distances, np.inf)
            weights = np.append(weights, float(self.cold))
        return SparseReuseProfile(distances=distances, weights=weights)


@dataclass(frozen=True)
class SparseReuseProfile:
    """A weighted stack-distance profile in sparse form.

    ``weights[i]`` accesses were observed (or analytically derived) at
    stack distance ``distances[i]``, counted in distinct cache lines;
    a distance of ``inf`` marks cold (first-touch) accesses, which miss
    in every finite cache.  Distances must be sorted ascending and
    unique — build via :meth:`from_distances` for arbitrary input.

    Weights may be fractional: the analytical traffic models hand the
    L2 a *expected* number of line touches per reuse-distance class,
    and the Mattson criterion is linear in the weights, so fractional
    mass composes exactly.

    Capacity queries are O(log N): a suffix-sum table is precomputed,
    and the misses of a capacity-``C`` fully-associative LRU cache are
    the total weight at distances >= ``C``.
    """

    distances: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.distances, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if d.shape != w.shape or d.ndim != 1:
            raise ConfigError(
                "distances and weights must be 1-D arrays of equal length"
            )
        if d.size and (np.any(np.diff(d) <= 0) or d[0] < 0):
            raise ConfigError(
                "distances must be non-negative, sorted and unique "
                "(use SparseReuseProfile.from_distances)"
            )
        if np.any(w < 0) or np.any(np.isnan(w)):
            raise ConfigError("weights must be non-negative")
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "weights", w)
        # suffix[i] = total weight at distances[i:]; suffix[N] = 0.
        suffix = np.zeros(d.size + 1, dtype=np.float64)
        if d.size:
            suffix[:-1] = np.cumsum(w[::-1])[::-1]
        object.__setattr__(self, "_suffix", suffix)

    @classmethod
    def from_distances(
        cls, distances: np.ndarray, weights: np.ndarray
    ) -> "SparseReuseProfile":
        """Build from unordered, possibly duplicated distances.

        Duplicate distances have their weights coalesced; zero-weight
        entries are dropped.
        """
        d = np.asarray(distances, dtype=np.float64)
        w = np.asarray(weights, dtype=np.float64)
        if d.shape != w.shape or d.ndim != 1:
            raise ConfigError(
                "distances and weights must be 1-D arrays of equal length"
            )
        uniq, inverse = np.unique(d, return_inverse=True)
        mass = np.bincount(inverse, weights=w, minlength=uniq.size)
        keep = mass > 0
        return cls(distances=uniq[keep], weights=mass[keep])

    @property
    def total(self) -> float:
        """Total access weight in the profile."""
        return float(self._suffix[0])  # type: ignore[attr-defined]

    @property
    def cold(self) -> float:
        """Weight of cold (infinite-distance) accesses."""
        if self.distances.size and np.isinf(self.distances[-1]):
            return float(self.weights[-1])
        return 0.0

    def misses_for_capacity(self, capacity_lines: float) -> float:
        """Miss weight of a fully-associative LRU cache of that capacity."""
        return float(self.misses_for_capacities([capacity_lines])[0])

    def misses_for_capacities(self, capacities_lines: ArrayLike) -> np.ndarray:
        """:meth:`misses_for_capacity` of every capacity at once, in
        input order.  NaN and non-positive capacities raise
        :class:`ConfigError`."""
        caps = np.asarray(capacities_lines, dtype=np.float64)
        bad = ~(caps > 0)  # NaN fails every comparison
        if bad.any():
            raise ConfigError(
                f"capacity must be positive, got {caps[bad].flat[0]}")
        idx = np.searchsorted(self.distances, caps, side="left")
        return self._suffix[idx]  # type: ignore[attr-defined,no-any-return]

    def miss_rate_for_capacity(self, capacity_lines: float) -> float:
        return (
            self.misses_for_capacity(capacity_lines) / self.total
            if self.total
            else 0.0
        )

    def miss_curve(self, capacities_lines: list[int]) -> dict[int, float]:
        """Miss rate for each capacity — the whole sweep from one pass."""
        return {c: self.miss_rate_for_capacity(c) for c in capacities_lines}

    def merge(self, other: "SparseReuseProfile") -> "SparseReuseProfile":
        """The profile of the concatenated access populations."""
        return SparseReuseProfile.from_distances(
            np.concatenate([self.distances, other.distances]),
            np.concatenate([self.weights, other.weights]),
        )


def reuse_profile(lines: np.ndarray) -> ReuseProfile:
    """Compute the stack-distance histogram of a line-ID stream.

    Args:
        lines: int64 array of line IDs in access order.

    Returns:
        A :class:`ReuseProfile`; distances are counted in distinct lines.
    """
    n = int(lines.size)
    if n == 0:
        return ReuseProfile(histogram=np.zeros(1, dtype=np.int64), cold=0, total=0)
    tree = _Fenwick(n)
    last_pos: dict[int, int] = {}
    hist = np.zeros(n + 1, dtype=np.int64)
    cold = 0
    stream = lines.tolist()
    for t, line in enumerate(stream):
        prev = last_pos.get(line)
        if prev is None:
            cold += 1
        else:
            # Distinct lines accessed in (prev, t): each has its most
            # recent access marked in the tree after position prev.
            dist = tree.prefix_sum(t) - tree.prefix_sum(prev + 1)
            hist[dist] += 1
            tree.add(prev, -1)
        tree.add(t, 1)
        last_pos[line] = t
    # Trim the histogram tail.
    nz = np.nonzero(hist)[0]
    top = int(nz[-1]) + 1 if nz.size else 1
    return ReuseProfile(histogram=hist[:top].copy(), cold=cold, total=n)
