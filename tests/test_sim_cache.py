"""Tests for the cache simulator and the stack-distance profiler."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.sim import Cache, CacheHierarchy, CacheStats, reuse_profile


class TestCacheBasics:
    def test_geometry(self):
        c = Cache(64 * 1024, assoc=8, line_bytes=64)
        assert c.num_sets == 128

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            Cache(1000, assoc=8, line_bytes=64)
        with pytest.raises(ConfigError):
            Cache(0)

    def test_cold_misses_then_hits(self):
        c = Cache(4096, assoc=4)
        lines = np.arange(8, dtype=np.int64)
        m1 = c.access_lines(lines)
        assert m1.all()
        m2 = c.access_lines(lines)
        assert not m2.any()
        assert c.stats.accesses == 16
        assert c.stats.misses == 8

    def test_capacity_eviction_lru(self):
        # 1 set x 2 ways: access A, B, C -> A evicted; A misses again.
        c = Cache(128, assoc=2, line_bytes=64)
        c.access_lines(np.array([0, 1, 2], dtype=np.int64) * c.num_sets)
        m = c.access_lines(np.array([0], dtype=np.int64))
        assert m[0]
        assert c.stats.evictions >= 1

    def test_lru_recency_update(self):
        # 2 ways: A, B, touch A again, then C -> B (LRU) evicted, A stays.
        c = Cache(128, assoc=2, line_bytes=64)
        a, b, cc = 0, 2, 4  # same set (num_sets == 1)
        c.access_lines(np.array([a, b, a, cc], dtype=np.int64))
        m = c.access_lines(np.array([a, b], dtype=np.int64))
        assert not m[0]  # A still resident
        assert m[1]  # B was evicted

    def test_sets_isolate_conflicts(self):
        c = Cache(2 * 64 * 2, assoc=2, line_bytes=64)  # 2 sets, 2 ways
        # Lines 0,2,4,6 map to set 0; 1,3 to set 1.
        c.access_lines(np.array([1, 3], dtype=np.int64))
        c.access_lines(np.array([0, 2, 4, 6], dtype=np.int64))
        m = c.access_lines(np.array([1, 3], dtype=np.int64))
        assert not m.any()  # set 1 undisturbed by set-0 thrashing

    def test_writeback_accounting(self):
        c = Cache(128, assoc=2, line_bytes=64)
        stores = np.array([True, True, False], dtype=bool)
        c.access_lines(np.array([0, 1, 2], dtype=np.int64), stores)
        # Line 0 was dirty and evicted by line 2's allocation.
        assert c.stats.writebacks == 1

    def test_store_hit_marks_dirty(self):
        c = Cache(128, assoc=2, line_bytes=64)
        c.access_lines(np.array([0], dtype=np.int64))  # clean load
        c.access_lines(np.array([0], dtype=np.int64), np.array([True]))  # dirty it
        c.access_lines(np.array([1, 2], dtype=np.int64))  # evict 0
        assert c.stats.writebacks == 1

    def test_empty_stream(self):
        c = Cache(4096, assoc=4)
        assert c.access_lines(np.empty(0, dtype=np.int64)).size == 0

    def test_cache_stats_dict_roundtrip(self):
        s = CacheStats(accesses=10, misses=4, evictions=3, writebacks=2)
        assert CacheStats.from_dict(s.to_dict()) == s


class TestHierarchy:
    def test_l2_sees_only_l1_misses(self):
        h = CacheHierarchy(l1_kb=1, l2_mb=1, l1_assoc=2)
        lines = np.arange(8, dtype=np.int64)
        h.access(lines)  # all cold: 8 L1 misses -> 8 L2 accesses
        h.access(lines)  # all L1 hits -> no L2 traffic
        s = h.snapshot()
        assert s.l1.accesses == 16
        assert s.l1.misses == 8
        assert s.l2.accesses == 8
        assert s.l2.misses == 8

    def test_l2_catches_l1_capacity_misses(self):
        # Working set bigger than L1 (1 kB = 16 lines) but far below L2.
        h = CacheHierarchy(l1_kb=1, l2_mb=1, l1_assoc=2)
        lines = np.arange(64, dtype=np.int64)
        for _ in range(4):
            h.access(lines)
        s = h.snapshot()
        assert s.l1.miss_rate > 0.9  # streams through tiny L1
        assert s.l2.misses == 64  # only the cold misses

    def test_dram_bytes(self):
        h = CacheHierarchy(l1_kb=1, l2_mb=1)
        h.access(np.arange(10, dtype=np.int64))
        s = h.snapshot()
        assert s.dram_bytes == 10 * 64


class TestWritebackPropagation:
    """L1 dirty victims must reach the L2 as store accesses."""

    def _hier(self):
        # Tiny 2-way L1 (8 sets) over the default 1 MB L2.
        return CacheHierarchy(l1_kb=1, l2_mb=1, l1_assoc=2)

    def test_clean_victims_do_not_touch_l2(self):
        h = self._hier()
        same_set = np.array([0, 8, 16], dtype=np.int64)  # all L1 set 0
        h.access(same_set)  # 3 cold misses, line 0 evicted clean
        s = h.snapshot()
        assert s.l1.evictions >= 1 and s.l1.writebacks == 0
        assert s.l2.accesses == s.l1.misses

    def test_dirty_victim_writes_back_to_l2(self):
        h = self._hier()
        h.access(np.array([0], dtype=np.int64))  # clean fill
        h.access(np.array([0], dtype=np.int64),
                 np.array([True]))  # store HIT dirties L1 only
        h.access(np.array([8, 16], dtype=np.int64))  # evict 0 dirty
        s = h.snapshot()
        assert s.l1.writebacks == 1
        # L2 absorbed 3 refills plus the victim writeback...
        assert s.l2.accesses == s.l1.misses + s.l1.writebacks == 4
        # ... and the writeback hit the (inclusively resident) line.
        assert s.l2.misses == s.l1.misses == 3

    def test_l2_access_invariant_under_store_workload(self):
        """Inclusive-hierarchy invariant: every L1 miss and every L1
        dirty writeback appears as exactly one L2 access."""
        rng = np.random.default_rng(7)
        h = self._hier()
        for _ in range(4):
            lines = rng.integers(0, 200, size=500).astype(np.int64)
            stores = rng.random(500) < 0.3
            h.access(lines, stores)
        s = h.snapshot()
        assert s.l2.accesses == s.l1.misses + s.l1.writebacks
        assert s.l1.writebacks <= s.l1.evictions

    def test_propagated_dirt_reaches_dram(self):
        """A line dirtied by an L1 store *hit* must eventually count as
        DRAM writeback traffic once the L2 evicts it."""
        h = self._hier()
        h.access(np.array([0], dtype=np.int64))
        h.access(np.array([0], dtype=np.int64), np.array([True]))
        # Thrash L2 set 0 (1024 sets, 16 ways): 18 conflicting lines
        # evict line 0 from both levels; its dirt arrived via the
        # propagated L1 writeback.
        conflict = (np.arange(1, 19, dtype=np.int64)) * 1024
        h.access(conflict)
        s = h.snapshot()
        assert s.l1.writebacks >= 1
        assert s.l2.writebacks >= 1
        assert s.dram_lines == s.l2.misses + s.l2.writebacks


def _reference_access(num_sets, assoc, sets, lines, stores):
    """Per-access reference loop for the batched engine: one plain LRU
    update per access, no partitioning or run compression."""
    missed = np.zeros(lines.size, dtype=bool)
    victims = []
    misses = evictions = writebacks = 0
    for i, line in enumerate(lines.tolist()):
        store = bool(stores[i])
        s = sets[line % num_sets]
        prev = s.pop(line, None)
        if prev is None:
            missed[i] = True
            misses += 1
            if len(s) >= assoc:
                victim_line, victim_dirty = s.popitem(last=False)
                evictions += 1
                if victim_dirty:
                    writebacks += 1
                    victims.append((i, victim_line))
            s[line] = store
        else:
            s[line] = prev or store
    return missed, victims, (misses, evictions, writebacks)


class TestBatchedEngineDifferential:
    """The batched ``access_lines`` engine (set partitioning + MRU-run
    compression) must be bit-identical to the per-access reference loop:
    miss masks, victim streams and all counters."""

    @given(
        seed=st.integers(0, 10**6),
        nsets_pow=st.integers(0, 3),
        assoc=st.integers(1, 4),
        nlines=st.integers(1, 40),
        length=st.integers(1, 300),
        store_frac=st.floats(0.0, 1.0),
        repeat_frac=st.floats(0.0, 0.9),
        batches=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loop(
        self, seed, nsets_pow, assoc, nlines, length, store_frac,
        repeat_frac, batches
    ):
        rng = np.random.default_rng(seed)
        num_sets = 2 ** nsets_pow
        cache = Cache(num_sets * assoc * 64, assoc=assoc, line_bytes=64)
        assert cache.num_sets == num_sets
        ref_sets = [OrderedDict() for _ in range(num_sets)]
        ref_misses = ref_evictions = ref_writebacks = 0
        for _ in range(batches):
            lines = rng.integers(0, nlines, size=length).astype(np.int64)
            # Inject consecutive repeats so run compression is exercised.
            dup = rng.random(length) < repeat_frac
            lines[1:][dup[1:]] = lines[:-1][dup[1:]]
            stores = rng.random(length) < store_frac
            victims = []
            missed = cache.access_lines(lines, stores, victims_out=victims)
            exp_missed, exp_victims, (m, e, w) = _reference_access(
                num_sets, assoc, ref_sets, lines, stores
            )
            assert np.array_equal(missed, exp_missed)
            assert victims == exp_victims
            ref_misses += m
            ref_evictions += e
            ref_writebacks += w
        assert cache.stats.accesses == batches * length
        assert cache.stats.misses == ref_misses
        assert cache.stats.evictions == ref_evictions
        assert cache.stats.writebacks == ref_writebacks
        # Residency (and LRU order per set) must agree too.
        assert cache._sets == ref_sets

    def test_loads_only_matches_all_false_store_mask(self):
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 30, size=200).astype(np.int64)
        a = Cache(4 * 2 * 64, assoc=2, line_bytes=64)
        b = Cache(4 * 2 * 64, assoc=2, line_bytes=64)
        va, vb = [], []
        ma = a.access_lines(lines, victims_out=va)
        mb = b.access_lines(lines, np.zeros(200, dtype=bool), victims_out=vb)
        assert np.array_equal(ma, mb)
        assert va == vb == []  # clean victims never write back
        assert vars(a.stats) == vars(b.stats)
        assert a.stats.writebacks == 0


class TestReuseProfile:
    def test_simple_stream(self):
        # A B A: distance of second A is 1 (B in between).
        prof = reuse_profile(np.array([0, 1, 0], dtype=np.int64))
        assert prof.cold == 2
        assert prof.histogram[1] == 1
        assert prof.total == 3

    def test_repeat_distance_zero(self):
        prof = reuse_profile(np.array([5, 5, 5], dtype=np.int64))
        assert prof.cold == 1
        assert prof.histogram[0] == 2

    def test_miss_counts_by_capacity(self):
        # Cyclic stream of 4 lines repeated: capacity >= 4 -> only cold.
        stream = np.tile(np.arange(4, dtype=np.int64), 10)
        prof = reuse_profile(stream)
        assert prof.misses_for_capacity(4) == 4
        # Capacity 3 with LRU and cyclic access: everything misses.
        assert prof.misses_for_capacity(3) == 40

    def test_empty(self):
        prof = reuse_profile(np.empty(0, dtype=np.int64))
        assert prof.total == 0
        assert prof.miss_rate_for_capacity(16) == 0.0

    def test_bad_capacity(self):
        prof = reuse_profile(np.array([1], dtype=np.int64))
        with pytest.raises(ConfigError):
            prof.misses_for_capacity(0)

    @given(
        seed=st.integers(0, 10**6),
        nlines=st.integers(2, 40),
        length=st.integers(10, 400),
        capacity=st.integers(1, 64),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_fully_associative_lru_simulation(
        self, seed, nlines, length, capacity
    ):
        """Property: the stack-distance miss count equals an exact
        fully-associative LRU simulation on random streams."""
        rng = np.random.default_rng(seed)
        stream = rng.integers(0, nlines, size=length).astype(np.int64)
        prof = reuse_profile(stream)
        # Exact fully-associative LRU cache of `capacity` lines.
        c = Cache(capacity * 64, assoc=capacity, line_bytes=64)
        assert c.num_sets == 1
        missed = c.access_lines(stream)
        assert prof.misses_for_capacity(capacity) == int(missed.sum())
