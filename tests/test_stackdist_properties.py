"""Property-based campaign over the stack-distance machinery.

The co-design sweep's fast backend rests on this module: both sweep
backends replay one per-VLEN recording, and under the fast backend
each recorded layer's weighted profile must answer *every* L2 capacity
of the axis correctly, all in one lookup.  These tests pin the
classical Mattson invariants with hypothesis-generated access streams
and weighted profiles:

- conservation: histogram mass + cold touches == stream length;
- the miss curve is monotone non-increasing in capacity;
- cold misses == distinct lines (compulsory misses);
- the O(N log N) Fenwick-tree pass matches a naive O(N^2) recount;
- the sparse weighted form agrees with the dense histogram everywhere;
- the array lookup equals the scalar one capacity by capacity, and
  both reject NaN and non-positive capacities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim.stackdist import ReuseProfile, SparseReuseProfile, reuse_profile

streams = st.lists(st.integers(min_value=0, max_value=12), max_size=120)


def naive_reuse_profile(stream):
    """O(N^2) reference: distance = distinct lines since the last use."""
    hist = {}
    cold = 0
    for t, line in enumerate(stream):
        try:
            prev = max(i for i in range(t) if stream[i] == line)
        except ValueError:
            cold += 1
            continue
        dist = len(set(stream[prev + 1:t]))
        hist[dist] = hist.get(dist, 0) + 1
    return hist, cold


class TestDenseProfileProperties:
    @given(streams)
    def test_mass_conservation(self, stream):
        prof = reuse_profile(np.asarray(stream, dtype=np.int64))
        assert int(prof.histogram.sum()) + prof.cold == prof.total == len(stream)

    @given(streams)
    def test_cold_counts_distinct_lines(self, stream):
        prof = reuse_profile(np.asarray(stream, dtype=np.int64))
        assert prof.cold == len(set(stream))

    @given(streams)
    def test_miss_curve_monotone_non_increasing(self, stream):
        prof = reuse_profile(np.asarray(stream, dtype=np.int64))
        caps = range(1, len(stream) + 2)
        misses = [prof.misses_for_capacity(c) for c in caps]
        assert all(a >= b for a, b in zip(misses, misses[1:]))
        # Large-enough caches keep every miss compulsory.
        assert misses[-1] == prof.cold

    @settings(max_examples=50)
    @given(streams)
    def test_fenwick_matches_naive_quadratic(self, stream):
        prof = reuse_profile(np.asarray(stream, dtype=np.int64))
        hist, cold = naive_reuse_profile(stream)
        assert prof.cold == cold
        measured = {
            d: int(n) for d, n in enumerate(prof.histogram) if n
        }
        assert measured == hist

    @given(streams)
    def test_infinite_capacity_leaves_only_compulsory_misses(self, stream):
        prof = reuse_profile(np.asarray(stream, dtype=np.int64))
        assert prof.misses_for_capacity(10**9) == prof.cold
        if stream:
            assert prof.miss_rate_for_capacity(10**9) == pytest.approx(
                len(set(stream)) / len(stream)
            )


class TestSparseProfileProperties:
    @given(streams)
    def test_dense_and_sparse_agree_at_every_capacity(self, stream):
        dense = reuse_profile(np.asarray(stream, dtype=np.int64))
        sparse = dense.to_sparse()
        assert sparse.total == dense.total
        assert sparse.cold == dense.cold
        for cap in range(1, len(stream) + 2):
            assert sparse.misses_for_capacity(cap) == pytest.approx(
                dense.misses_for_capacity(cap)
            )

    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.floats(min_value=0, max_value=1e6,
                              allow_nan=False),
                    st.just(float("inf")),
                ),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
            ),
            max_size=60,
        )
    )
    def test_from_distances_coalesces_and_conserves_mass(self, pairs):
        d = np.array([p[0] for p in pairs], dtype=np.float64)
        w = np.array([p[1] for p in pairs], dtype=np.float64)
        prof = SparseReuseProfile.from_distances(d, w)
        # Sorted, unique, positive-mass entries only.
        assert np.all(np.diff(prof.distances) > 0)
        assert np.all(prof.weights > 0)
        assert prof.total == pytest.approx(float(w.sum()))
        # Coalescing preserved per-distance mass.
        for dist in set(p[0] for p in pairs):
            expect = float(w[d == dist].sum())
            got = float(prof.weights[prof.distances == dist].sum())
            assert got == pytest.approx(expect)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
            ),
            max_size=60,
        ),
        st.floats(min_value=1e-3, max_value=2e6, allow_nan=False),
    )
    def test_misses_match_direct_sum(self, pairs, cap):
        d = np.array([p[0] for p in pairs], dtype=np.float64)
        w = np.array([p[1] for p in pairs], dtype=np.float64)
        prof = SparseReuseProfile.from_distances(d, w)
        expect = float(w[d >= cap].sum())
        assert prof.misses_for_capacity(cap) == pytest.approx(expect)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e3, allow_nan=False),
                st.floats(min_value=0, max_value=1e3, allow_nan=False),
            ),
            max_size=40,
        )
    )
    def test_miss_curve_monotone(self, pairs):
        d = np.array([p[0] for p in pairs], dtype=np.float64)
        w = np.array([p[1] for p in pairs], dtype=np.float64)
        prof = SparseReuseProfile.from_distances(d, w)
        caps = np.linspace(0.5, 1.2e3, 30)
        misses = [prof.misses_for_capacity(float(c)) for c in caps]
        assert all(a >= b - 1e-9 for a, b in zip(misses, misses[1:]))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            max_size=30,
        ),
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            max_size=30,
        ),
    )
    def test_merge_is_additive_at_every_capacity(self, a_pairs, b_pairs):
        def build(pairs):
            d = np.array([p[0] for p in pairs], dtype=np.float64)
            w = np.array([p[1] for p in pairs], dtype=np.float64)
            return SparseReuseProfile.from_distances(d, w)

        a, b = build(a_pairs), build(b_pairs)
        merged = a.merge(b)
        assert merged.total == pytest.approx(a.total + b.total)
        for cap in (0.5, 1.0, 7.0, 50.0, 150.0):
            assert merged.misses_for_capacity(cap) == pytest.approx(
                a.misses_for_capacity(cap) + b.misses_for_capacity(cap)
            )

    def test_rejects_unsorted_and_negative_input(self):
        with pytest.raises(ConfigError):
            SparseReuseProfile(
                distances=np.array([3.0, 1.0]), weights=np.array([1.0, 1.0])
            )
        with pytest.raises(ConfigError):
            SparseReuseProfile(
                distances=np.array([1.0, 1.0]), weights=np.array([1.0, 1.0])
            )
        with pytest.raises(ConfigError):
            SparseReuseProfile(
                distances=np.array([-1.0]), weights=np.array([1.0])
            )
        with pytest.raises(ConfigError):
            SparseReuseProfile(
                distances=np.array([1.0]), weights=np.array([-1.0])
            )
        with pytest.raises(ConfigError):
            SparseReuseProfile(
                distances=np.array([1.0]), weights=np.array([1.0])
            ).misses_for_capacity(0)

    def test_nan_and_non_positive_capacities_rejected(self):
        prof = SparseReuseProfile(
            distances=np.array([1.0, np.inf]), weights=np.array([2.0, 3.0])
        )
        for bad in (float("nan"), 0.0, -1.0):
            with pytest.raises(ConfigError):
                prof.misses_for_capacity(bad)
            with pytest.raises(ConfigError):
                prof.misses_for_capacities([4.0, bad])
        with pytest.raises(ConfigError):
            ReuseProfile(histogram=np.zeros(3, dtype=np.int64), cold=0,
                         total=0).misses_for_capacity(float("nan"))

    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.floats(min_value=0, max_value=1e4, allow_nan=False),
                    st.just(float("inf")),
                ),
                st.floats(min_value=0, max_value=1e4, allow_nan=False),
            ),
            max_size=40,
        ),
        st.lists(
            st.one_of(
                st.floats(min_value=1e-3, max_value=2e4, allow_nan=False),
                st.sampled_from([1.0, 10.0, 100.0, 1000.0]),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_array_lookup_equals_scalar_lookup(self, pairs, caps):
        d = np.array([p[0] for p in pairs], dtype=np.float64)
        w = np.array([p[1] for p in pairs], dtype=np.float64)
        prof = SparseReuseProfile.from_distances(d, w)
        got = prof.misses_for_capacities(caps)
        assert got.shape == (len(caps),)
        assert got.tolist() == [prof.misses_for_capacity(c) for c in caps]

    def test_empty_profile(self):
        prof = SparseReuseProfile.from_distances(
            np.array([]), np.array([])
        )
        assert prof.total == 0.0
        assert prof.cold == 0.0
        assert prof.misses_for_capacity(1.0) == 0.0
        assert prof.miss_rate_for_capacity(1.0) == 0.0
