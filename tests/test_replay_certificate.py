"""The rounding certificate of grouped replay.

A recording condenses a VLEN column's distinct layers in one pass
(``ColumnTraffic``) and answers every counter of every layer from
segment sums over that layer's groups, certifying that each rounded
count equals ``rint`` of the reference's class-by-class sum of that
layer (see ``CondensedTraffic.error_factor``).  A segment-summed
estimate adds the layer's group terms and never another layer's, so
the derivation is the one-layer one: each term of the estimate and of
the reference passes through at most ``K = n + runs + groups + 4``
roundings, with ``n``, ``runs`` and ``groups`` the layer's own classes,
runs and (distances x 2 x regions); a column's other distances and
regions contribute at most exact zeros.  Both sums then lie within
``gamma_K E`` of the exact sum ``E``, so they differ by at most ``B =
error_factor * S`` from the estimate ``S``.  These tests check that
premise directly per layer of random columns — every reference float
lies within ``B`` of the segment-summed estimate, and each layer's
factor is its one-layer factor — force the per-class fallback with
half-integer sums, and check that a certified replay never lays out a
per-class array.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.model.traffic as traffic
from repro.codesign import PAPER_L2_MBS
from repro.codesign.executor import evaluate_column
from repro.model.traffic import (
    COLD,
    FALLBACK_COUNTER,
    ColumnSplit,
    ColumnTraffic,
    CondensedTraffic,
    L1Split,
    PhaseModel,
    _ordered_sum,
    evaluate_hierarchy,
)
from repro.nets import vgg16_layers, yolov3_layers
from repro.nets.inference import BACKENDS
from repro.obs import METRICS
from tests.metrics_delta import counter_delta
from tests.test_axis_replay import sharp_reference, smooth_reference

MB = 1 << 20
L1_BYTES = 64 * 1024

_ACCESSES = st.one_of(
    st.floats(min_value=0.5, max_value=1e12),
    st.sampled_from([0.1, 0.5, 1.5, 2.5, 1e12 + 0.5]),
    st.integers(min_value=1, max_value=10**12).map(float),
)
_DISTANCES = st.one_of(
    st.just(COLD), st.just(0.0),
    st.floats(min_value=0.0, max_value=600.0 * MB),
    st.integers(min_value=1, max_value=512).map(lambda mb: float(mb * MB)),
)
_REGIONS = st.one_of(
    st.just(math.inf),
    st.integers(min_value=1, max_value=300).map(lambda mb: float(mb * MB)),
)
_CLASS = st.tuples(_ACCESSES, _DISTANCES, st.booleans(), _REGIONS,
                   st.sampled_from([1.0, 2.0]))
#: One append: a list of classes (scalar fields if it has one) and a
#: repeat count.
_APPENDS = st.lists(
    st.tuples(st.lists(_CLASS, min_size=1, max_size=12),
              st.sampled_from([1, 2, 3, 50, 1000])),
    min_size=1, max_size=6)
#: A column: the appends of one to three layers.
_LAYERS = st.lists(_APPENDS, min_size=1, max_size=3)
_AXIS = st.lists(st.integers(min_value=1, max_value=512).map(lambda mb: mb * MB),
                 min_size=1, max_size=6)


def _phase(appends) -> PhaseModel:
    ph = PhaseModel("t")
    for i, (classes, repeat) in enumerate(appends):
        if len(classes) == 1:
            ph.add_traffic(f"s{i}", *classes[0][:2], is_store=classes[0][2],
                           region=classes[0][3], dilution=classes[0][4],
                           repeat=repeat)
        else:
            acc, dist, store, region, dil = (np.array(c) for c in zip(*classes))
            ph.add_traffic(f"a{i}", acc, dist, is_store=store, region=region,
                           dilution=dil, repeat=repeat)
    return ph


def _column(layers) -> ColumnSplit:
    return ColumnTraffic.condense(
        [CondensedTraffic.from_phases([_phase(a)]) for a in layers]
    ).l1_split(L1_BYTES)


def _within(reference: float, estimate: float, factor: float) -> bool:
    return abs(reference - estimate) <= factor * estimate


class TestCertificate:
    @settings(max_examples=150, deadline=None)
    @given(_LAYERS, _AXIS)
    def test_references_lie_within_the_bound(self, layers, axis):
        column = _column(layers)
        g = column.traffic._groups
        l1_sums = column.traffic._per_layer(
            np.stack([g.total, column.to_l2], axis=1))
        sums = {criterion: column.l2_sums(axis, sharp)
                for sharp, criterion in ((False, smooth_reference),
                                         (True, sharp_reference))}
        for k, f in enumerate(column.traffic.error_factors.tolist()):
            split = L1Split(column, k)
            ct = split.traffic
            assert f == ct.error_factor
            assert _within(_ordered_sum(ct.accesses), float(ct.totals.sum()), f)
            assert _within(_ordered_sum(ct.accesses), l1_sums[k, 0], f)
            assert _within(_ordered_sum(split.to_l2),
                           float(split.group_to_l2.sum()), f)
            assert _within(_ordered_sum(split.to_l2), l1_sums[k, 1], f)
            for reference, (misses, writebacks) in sums.items():
                for b, m, w in zip(axis, misses[k].tolist(),
                                   writebacks[k].tolist()):
                    ref_m, ref_w = reference(split, b)
                    assert _within(ref_m, m, f)
                    assert _within(ref_w, w, f)

    @settings(max_examples=60, deadline=None)
    @given(_LAYERS, _AXIS)
    def test_counts_are_rint_of_the_references(self, layers, axis):
        column = _column(layers)
        for criterion, reference in ((ColumnSplit.smooth_l2, smooth_reference),
                                     (ColumnSplit.sharp_l2, sharp_reference)):
            misses, writebacks = criterion(column, axis)
            assert misses.dtype == writebacks.dtype == np.int64
            assert misses.shape == writebacks.shape == (len(layers), len(axis))
            for k, appends in enumerate(layers):
                split = L1Split(column, k)
                h = evaluate_hierarchy([_phase(appends)], L1_BYTES, axis[0])
                assert (split.accesses, split.misses) == (
                    h.l1.accesses, h.l1.misses)
                refs = [reference(split, b) for b in axis]
                assert misses[k].tolist() == [round(m) for m, _ in refs]
                assert writebacks[k].tolist() == [round(w) for _, w in refs]

    def test_factor_grows_with_the_classes(self):
        one = [(1.0, 64.0, False, math.inf, 1.0)]
        small = CondensedTraffic.from_phases([_phase([(one, 1)])])
        large = CondensedTraffic.from_phases([_phase([(one, 10**6)])])
        assert 0.0 < small.error_factor < large.error_factor < 1e-9
        column = ColumnTraffic.condense([small, large])
        assert column.error_factors.tolist() == [small.error_factor,
                                                 large.error_factor]


class TestForcedFallback:
    @pytest.mark.parametrize("accesses,want", [(2.5, 2), (3.5, 4)])
    def test_half_integer_cold_class_rounds_half_even(self, accesses, want):
        """A lone cold store of ``k + 0.5`` accesses sums to exactly
        ``k + 0.5`` in every counter, so no certificate can settle it;
        the fallback rounds the reference half to even."""
        ph = PhaseModel("t")
        ph.add_traffic("cold", accesses, COLD, is_store=True)
        with METRICS.capture() as cap:
            split = CondensedTraffic.from_phases([ph]).l1_split(L1_BYTES)
            assert (split.accesses, split.misses) == (want, want)
            assert counter_delta(cap) == {FALLBACK_COUNTER: 1}
            for criterion in (ColumnSplit.smooth_l2, ColumnSplit.sharp_l2):
                misses, writebacks = criterion(split.column, [MB, 4 * MB])
                assert misses.tolist() == writebacks.tolist() == [[want, want]]
            assert counter_delta(cap) == {FALLBACK_COUNTER: 5}
        h = evaluate_hierarchy([ph], L1_BYTES, MB)
        assert (h.l1.accesses, h.l1.misses, h.l2.misses,
                h.l2.writebacks) == (want,) * 4

    def test_only_the_doubtful_size_falls_back(self):
        """A half-integer writeback at one size only: the other sizes
        stay certified."""
        ph = PhaseModel("t")
        ph.add_traffic("loads", 1000.25, COLD)
        ph.add_traffic("store", 2.5, COLD, is_store=True, region=8.0 * MB)
        with METRICS.capture() as cap:
            split = CondensedTraffic.from_phases([ph]).l1_split(L1_BYTES)
            misses, writebacks = split.column.smooth_l2(
                [16 * MB, 4 * MB, 32 * MB])
        assert counter_delta(cap) == {FALLBACK_COUNTER: 1}
        assert split.accesses == split.misses == 1003
        assert misses.tolist() == [[1003, 1003, 1003]]
        assert writebacks.tolist() == [[0, 2, 0]]

    def test_certified_counts_take_no_fallback(self):
        ph = PhaseModel("t")
        ph.add_traffic("cold", np.array([2.25, 1e9 + 0.75]), COLD,
                       is_store=True, repeat=3)
        with METRICS.capture() as cap:
            split = CondensedTraffic.from_phases([ph]).l1_split(L1_BYTES)
            for criterion in (ColumnSplit.smooth_l2, ColumnSplit.sharp_l2):
                misses, _ = criterion(split.column, [MB])
                assert misses.tolist() == [[3000000009]]
        assert cap.delta() == {}


class TestNoLayout:
    @pytest.mark.parametrize("net,build,vlen", [
        ("vgg16", vgg16_layers, 512),
        ("yolov3", yolov3_layers, 2048),
    ])
    @pytest.mark.parametrize("mode", BACKENDS)
    def test_cold_column_lays_out_no_class(
            self, monkeypatch, net, build, vlen, mode):
        """Recording and replaying a whole paper column tiles no
        per-class array: every counter comes from the group totals."""
        tiled = []

        def spy(parts, dtype):
            tiled.append(sum(p.size * r for p, r in parts))
            raise AssertionError("a per-class array was laid out")

        monkeypatch.setattr(traffic, "_tiled", spy)
        with METRICS.capture() as cap:
            points, _, _ = evaluate_column(net, build(), vlen, PAPER_L2_MBS,
                                           mode=mode)
        assert len(points) == len(PAPER_L2_MBS)
        assert counter_delta(cap).get(FALLBACK_COUNTER, 0) == 0
        assert tiled == []

    def test_fallback_lays_out_only_on_demand(self):
        ph = PhaseModel("t")
        ph.add_traffic("panel", np.array([1.0, 2.0]), 64.0 * MB, repeat=1000)
        ct = CondensedTraffic.from_phases([ph])
        assert "accesses" not in vars(ct)
        split = ct.l1_split(L1_BYTES)
        split.column.smooth_l2([MB, 128 * MB])
        assert "accesses" not in vars(ct) and "to_l2" not in vars(split)
        assert ct.n_classes == 2000
        assert ct.accesses.size == 2000 and not ct.accesses.flags.writeable
