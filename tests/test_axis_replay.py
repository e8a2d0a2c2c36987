"""Axis replay: one ``NetworkRecording.evaluate`` call answers a whole
L2 axis exactly as per-point references do.

The references live here and work one point at a time: the exact
backend against a fresh ``simulate_inference``; the fast backend
against the scalar sharp rule (``SparseReuseProfile.misses_for_capacity``
plus a masked writeback sum per size) assembled into per-layer
``SimStats`` and merged into the total point by point.  Axes come
unsorted, with duplicates and as single points, and straddle the
recorded store regions and reuse distances, so the written-back store
set changes between neighbouring sizes.  Equality is ``==`` on the
results and byte equality of their ``to_dict()`` JSON.
"""

import json
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conv import ConvLayerSpec
from repro.errors import ConfigError
from repro.model.layer_model import NetworkResult
from repro.model.traffic import (
    CAPACITY_FACTOR,
    COLD,
    SHARPNESS,
    ColumnSplit,
    ColumnTraffic,
    CondensedTraffic,
    L1Split,
    PhaseModel,
    _hit_probability,
    _ordered_sum,
)
from repro.nets.inference import (
    BACKEND_EXACT,
    BACKEND_FAST,
    BACKENDS,
    record_inference,
    simulate_inference,
)
from repro.nets.layers import MaxPoolSpec, ShortcutSpec
from repro.obs import Tracer, counters_from_stats, current_tracer, tracing
from repro.sim import SystemConfig
from repro.sim.cache import CacheStats, HierarchyStats
from repro.sim.stackdist import SparseReuseProfile
from repro.sim.stats import SimStats

MB = 1 << 20
L1_BYTES = 64 * 1024

#: Small enough to simulate in milliseconds, with store regions and
#: reuse distances of 2 to 16 MB, several of them whole MB, so the L2
#: axis crosses them and meets some exactly.
LAYERS = [
    ConvLayerSpec(name="c1", c_in=16, h_in=128, w_in=128, c_out=64,
                  ksize=3, stride=1, pad=1),
    ShortcutSpec(name="s1", c=64, h=128, w=128),
    ConvLayerSpec(name="c2", c_in=64, h_in=128, w_in=128, c_out=128,
                  ksize=3, stride=1, pad=1),
    MaxPoolSpec(name="p1", c=128, h=128, w=128),
    ConvLayerSpec(name="c3", c_in=128, h_in=64, w_in=64, c_out=64,
                  ksize=1, stride=1, pad=0),
]
VLENS = (512, 2048)


# ----------------------------------------------------------------------
# Per-point references.
# ----------------------------------------------------------------------
def sharp_reference(split: L1Split, l2_bytes: int) -> tuple[float, float]:
    """The sharp rule at one L2 size: unrounded (misses, writebacks)."""
    tr = split.traffic
    dist_lines = (tr.eff_unique / split.line_bytes)[tr.eff_index]
    profile = SparseReuseProfile.from_distances(dist_lines, split.to_l2)
    store = tr.store_mask
    l2_eff = l2_bytes * CAPACITY_FACTOR
    cap_lines = l2_eff / split.line_bytes
    written = (dist_lines[store] >= cap_lines) & (tr.region[store] > l2_eff)
    return (profile.misses_for_capacity(cap_lines),
            float(split.to_l2[store][written].sum()))


def smooth_reference(split: L1Split, l2_bytes: int) -> tuple[float, float]:
    """The smoothed rule at one L2 size: unrounded (misses, writebacks)."""
    tr = split.traffic
    l2_eff = l2_bytes * CAPACITY_FACTOR
    hit = np.array([_hit_probability(d, l2_eff, SHARPNESS)
                    for d in tr.eff_unique.tolist()])[tr.eff_index]
    missed = split.to_l2 * (1.0 - hit)
    return (_ordered_sum(missed),
            _ordered_sum(missed[tr.store_mask & (tr.region > l2_eff)]))


def fast_reference(rec, l2_mb: int) -> NetworkResult:
    """One L2 size under the sharp rule, layer by layer, merged into
    the total like ``simulate_inference`` does."""
    cfg = rec.config.with_(l2_mb=l2_mb)
    per_layer = []
    total = SimStats(freq_ghz=cfg.freq_ghz, label=f"{rec.name} total")
    for layer in rec.layers:
        t = layer.template
        misses, writebacks = sharp_reference(layer.split, l2_mb * MB)
        hstats = HierarchyStats(
            l1=CacheStats(accesses=t.hierarchy.l1.accesses,
                          misses=t.hierarchy.l1.misses),
            l2=CacheStats(accesses=t.hierarchy.l2.accesses,
                          misses=int(round(misses)),
                          writebacks=int(round(writebacks))),
            line_bytes=t.hierarchy.line_bytes,
        )
        l2_stall, dram_stall = cfg.memory_timings().stall_cycles(
            hstats.l1.misses, hstats.l2.misses, hstats.l2.writebacks)
        stats = SimStats(
            freq_ghz=t.freq_ghz, issue_cycles=t.issue_cycles,
            l2_stall_cycles=l2_stall, dram_stall_cycles=dram_stall,
            instrs=dict(t.instrs), elems=dict(t.elems), flops=t.flops,
            hierarchy=hstats, label=t.label,
        )
        per_layer.append(stats)
        total.merge(stats)
    return NetworkResult(name=rec.name, per_layer=tuple(per_layer),
                         total=total)


@lru_cache(maxsize=None)
def exact_reference(vlen: int, l2_mb: int) -> NetworkResult:
    return simulate_inference(
        "synth", LAYERS, SystemConfig(vlen_bits=vlen, l2_mb=l2_mb))


def _same(got: NetworkResult, ref: NetworkResult) -> None:
    assert got == ref
    assert (json.dumps(got.to_dict()).encode()
            == json.dumps(ref.to_dict()).encode())


def _straddling_sizes(rec) -> list[int]:
    """Whole-MB sizes at, just below and just above every recorded store
    region and finite reuse distance of at least 1 MB."""
    sizes = {1}
    for layer in rec.layers:
        tr = layer.split.traffic
        for x in np.concatenate(
                [tr.region[tr.store_mask], tr.eff_unique]).tolist():
            if math.isfinite(x) and MB <= x <= 512 * MB:
                lo, hi = math.floor(x / MB), math.ceil(x / MB)
                sizes.update((max(1, hi - 1), lo, hi, lo + 1))
    return sorted(sizes)


@pytest.fixture(scope="module")
def recordings():
    return {v: record_inference("synth", LAYERS, SystemConfig(vlen_bits=v))
            for v in VLENS}


@pytest.fixture(scope="module")
def pools(recordings):
    return {v: _straddling_sizes(rec) for v, rec in recordings.items()}


# ----------------------------------------------------------------------
# Network level.
# ----------------------------------------------------------------------
class TestAxisReplay:
    def test_pools_straddle_the_recorded_boundaries(self, pools):
        for pool in pools.values():
            assert {2, 4, 8, 16} < set(pool)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_per_point_references(self, recordings, pools, data):
        vlen = data.draw(st.sampled_from(VLENS))
        mode = data.draw(st.sampled_from(BACKENDS))
        axis = data.draw(st.lists(st.sampled_from(pools[vlen]),
                                  min_size=1, max_size=8))
        rec = recordings[vlen]
        got = rec.evaluate(axis, mode)
        assert len(got) == len(axis)
        for mb, result in zip(axis, got):
            ref = (exact_reference(vlen, mb) if mode == BACKEND_EXACT
                   else fast_reference(rec, mb))
            _same(result, ref)

    @pytest.mark.parametrize("mode", BACKENDS)
    def test_whole_pool_sorted_reversed_and_single(
            self, recordings, pools, mode):
        rec, pool = recordings[512], pools[512]
        forward = rec.evaluate(pool, mode)
        backward = rec.evaluate(pool[::-1], mode)
        assert forward == backward[::-1]
        for mb, result in zip(pool, forward):
            (single,) = rec.evaluate([mb], mode)
            _same(result, single)
        if mode == BACKEND_FAST:
            for mb, result in zip(pool, forward):
                _same(result, fast_reference(rec, mb))

    def test_points_share_no_objects(self, recordings):
        rec = recordings[2048]
        a, b = rec.evaluate([4, 4], BACKEND_FAST)
        assert a == b
        pairs = [(a.total, b.total)] + list(zip(a.per_layer, b.per_layer))
        pairs += [(x, layer.template)
                  for x, layer in zip(a.per_layer, rec.layers)]
        for x, y in pairs:
            assert x is not y
            assert x.instrs is not y.instrs and x.elems is not y.elems
            assert x.hierarchy is not y.hierarchy
            assert x.hierarchy.l1 is not y.hierarchy.l1
            assert x.hierarchy.l2 is not y.hierarchy.l2

    def test_numpy_integer_sizes(self, recordings):
        rec = recordings[512]
        assert rec.evaluate(np.array([16, 1])) == rec.evaluate([16, 1])

    @pytest.mark.parametrize(
        "bad", [[], (), 1.5, True, 16, None, [1.5], [2.0], [True], [0],
                [-4], [1, 0], ["16"]])
    @pytest.mark.parametrize("mode", BACKENDS)
    def test_axis_validated_before_any_work(
            self, recordings, monkeypatch, bad, mode):
        def no_work(*args, **kwargs):
            raise AssertionError("criterion ran before the axis was checked")

        monkeypatch.setattr(ColumnSplit, "sharp_l2", no_work)
        monkeypatch.setattr(ColumnSplit, "smooth_l2", no_work)
        with pytest.raises(ConfigError):
            recordings[512].evaluate(bad, mode)

    def test_unknown_mode_rejected(self, recordings):
        with pytest.raises(ConfigError):
            recordings[512].evaluate([1], "approximate")


class TestAxisReplaySpans:
    @pytest.mark.parametrize("mode", BACKENDS)
    def test_one_tree_per_point_with_summing_counters(
            self, recordings, mode):
        rec = recordings[512]
        axis = [16, 1, 4, 1]
        tracer = Tracer()
        with tracing(tracer):
            results = rec.evaluate(axis, mode)
        assert [s.name for s in tracer.spans] == (
            ["simulate_inference"] * len(axis))
        for root, mb, result in zip(tracer.spans, axis, results):
            assert root.attrs == {
                "network": "synth", "vlen_bits": 512, "l2_mb": mb,
                "freq_ghz": rec.config.freq_ghz, "hybrid": True,
                "variant": rec.variant,
            }
            assert [c.name for c in root.children] == ["layer"] * len(LAYERS)
            for child, stats in zip(root.children, result.per_layer):
                assert child.attrs == {"label": stats.label}
                assert child.counters == counters_from_stats(stats)
            assert root.counters == counters_from_stats(result.total)
            for name, value in root.counters.items():
                assert root.sum_counter(name) == value, name

    def test_traced_tree_matches_live_simulation(self, recordings):
        rec = recordings[2048]
        live, replay = Tracer(), Tracer()
        with tracing(live):
            simulate_inference("synth", LAYERS, rec.config.with_(l2_mb=4))
        with tracing(replay):
            rec.evaluate([1, 4])
        a, b = live.root, replay.spans[1]
        assert a.attrs == b.attrs
        assert [(c.attrs, c.counters) for c in a.children] == [
            (c.attrs, c.counters) for c in b.children]
        assert a.counters == b.counters

    @pytest.mark.parametrize("mode", BACKENDS)
    def test_untraced_replay_builds_no_counters(
            self, recordings, monkeypatch, mode):
        import repro.nets.inference as inference

        def no_counters(stats):
            raise AssertionError("counters built without a tracer")

        monkeypatch.setattr(inference, "counters_from_stats", no_counters)
        assert current_tracer() is None
        assert len(recordings[512].evaluate([1, 4, 16], mode)) == 3


# ----------------------------------------------------------------------
# L2 criteria over an array of sizes.
# ----------------------------------------------------------------------
#: Byte sizes on, just below and just above MB boundaries: distances,
#: regions and L2 sizes drawn from these meet each other exactly.
boundaries = st.builds(
    lambda mb, off: (mb << 20) + off,
    st.integers(min_value=1, max_value=8),
    st.sampled_from([-64, -1, 0, 1, 64]),
)
traffic_classes = st.lists(
    st.tuples(
        st.floats(min_value=0.5, max_value=1e4),
        st.one_of(boundaries.map(float), st.just(COLD),
                  st.floats(min_value=0.0, max_value=12.0 * MB)),
        st.booleans(),
        st.one_of(boundaries.map(float), st.just(math.inf)),
        st.sampled_from([1.0, 2.0]),
    ),
    min_size=1,
    max_size=40,
)
byte_axes = st.lists(
    st.one_of(st.integers(min_value=1, max_value=9).map(lambda m: m * MB),
              boundaries),
    min_size=1,
    max_size=12,
)


#: One to three layers' classes, condensed as one column.
traffic_columns = st.lists(traffic_classes, min_size=1, max_size=3)


def _layer(classes) -> CondensedTraffic:
    ph = PhaseModel("t")
    for i, (acc, dist, store, region, dil) in enumerate(classes):
        ph.add_traffic(f"c{i}", acc, dist, is_store=store, region=region,
                       dilution=dil)
    return CondensedTraffic.from_phases([ph])


def _column(layers) -> ColumnSplit:
    return ColumnTraffic.condense(
        [_layer(classes) for classes in layers]).l1_split(L1_BYTES)


def _check_criterion(criterion, reference, column, axis) -> None:
    """The criterion's counts are ``rint`` of the float oracle, layer by
    layer and size by size (the criteria return rounded ``int64``
    counts)."""
    misses, writebacks = criterion(column, axis)
    n = len(column.traffic.layers)
    assert misses.dtype == writebacks.dtype == np.int64
    assert misses.shape == writebacks.shape == (n, len(axis))
    for k in range(n):
        ref = [reference(L1Split(column, k), b) for b in axis]
        assert misses[k].tobytes() == np.rint([m for m, _ in ref]).astype(np.int64).tobytes()
        assert writebacks[k].tobytes() == np.rint([w for _, w in ref]).astype(np.int64).tobytes()


class TestCriteriaOverAnAxis:
    @settings(max_examples=150, deadline=None)
    @given(traffic_columns, byte_axes)
    def test_sharp_matches_scalar_rule(self, layers, axis):
        _check_criterion(ColumnSplit.sharp_l2, sharp_reference,
                         _column(layers), axis)

    @settings(max_examples=60, deadline=None)
    @given(traffic_columns, byte_axes)
    def test_smooth_matches_scalar_rule(self, layers, axis):
        _check_criterion(ColumnSplit.smooth_l2, smooth_reference,
                         _column(layers), axis)

    def test_writeback_set_changes_at_every_step(self):
        """Store class ``i`` reaches ``i + 1`` MB and its region ends
        just above it, so every step of the axis drops written classes
        — from both conditions — and each size sums its own set."""
        classes = [(100.0 + i, float((i + 1) * MB), True,
                    float((i + 2) * MB) - (64 if i % 2 else 0), 1.0)
                   for i in range(10)]
        column = _column([classes])
        axis = [7 * MB, 1 * MB, 3 * MB, 10 * MB, 2 * MB, 3 * MB, 5 * MB]
        _check_criterion(ColumnSplit.sharp_l2, sharp_reference, column, axis)
        _, writebacks = column.sharp_l2(sorted(set(axis)))
        assert np.all(np.diff(writebacks[0]) < 0)

    def test_no_store_classes_and_no_traffic(self):
        loads = [(10.0, float(MB), False, math.inf, 1.0)]
        _check_criterion(ColumnSplit.sharp_l2, sharp_reference,
                         _column([loads]), [MB, 2 * MB])
        empty = CondensedTraffic.from_phases([PhaseModel("e")]).l1_split(L1_BYTES)
        for criterion in (ColumnSplit.sharp_l2, ColumnSplit.smooth_l2):
            misses, writebacks = criterion(empty.column, [MB, 4 * MB])
            assert misses.tolist() == writebacks.tolist() == [[0.0, 0.0]]
        # Layers without traffic between and around loaded ones.
        column = ColumnTraffic.condense(
            [_layer([]), _layer(loads), _layer([]), _layer(loads * 2),
             _layer([])]).l1_split(L1_BYTES)
        for criterion, reference in ((ColumnSplit.sharp_l2, sharp_reference),
                                     (ColumnSplit.smooth_l2, smooth_reference)):
            _check_criterion(criterion, reference, column, [MB, 2 * MB])
            misses, _ = criterion(column, [MB, 2 * MB])
            assert misses[[0, 2, 4]].tolist() == [[0, 0]] * 3
        assert column.accesses.tolist() == [0, 10, 0, 20, 0]
