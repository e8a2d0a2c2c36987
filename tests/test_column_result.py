"""The columnar replay result: a VLEN column stays arrays until asked.

:meth:`NetworkRecording.evaluate` returns a :class:`ColumnResult`;
``point(i)`` builds today's :class:`NetworkResult` and ``point_dict(i)``
writes its ``to_dict()`` form straight from the arrays.  These tests pin
the two byte for byte against each other (and, under ``exact``, against
a fresh :func:`simulate_inference`), check that points never share
mutable state, that a column pickles as arrays, that a sweep keeps its
computed points columnar, and that a cold column builds no per-point
:class:`SimStats` (the guard against the per-point object graph growing
back).
"""

from __future__ import annotations

import json
import pickle
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codesign import BACKEND_EXACT, BACKENDS, SweepResult, codesign_sweep
from repro.nets import simulate_inference, vgg16_layers, yolov3_layers
from repro.nets.inference import ColumnResult, record_inference
from repro.obs import BenchRecorder
from repro.sim import SimStats, SystemConfig

NETS = {"vgg16": vgg16_layers, "yolov3": yolov3_layers}
PREFIXES = (1, 5, 9)
VLENS = (512, 2048)
FREQS = (2.0, 1.3)
SIZES = (1, 2, 3, 8, 16, 64, 256)
FINE_AXIS = tuple(range(1, 49))


@lru_cache(maxsize=None)
def _layers(net: str, prefix: int) -> tuple:
    return tuple(NETS[net]()[:prefix])


@lru_cache(maxsize=None)
def _recording(net: str, prefix: int, vlen: int, freq: float = 2.0):
    return record_inference(net, list(_layers(net, prefix)),
                            SystemConfig(vlen_bits=vlen, freq_ghz=freq))


@lru_cache(maxsize=None)
def _fresh(net: str, prefix: int, vlen: int, freq: float, l2_mb: int):
    return simulate_inference(
        net, list(_layers(net, prefix)),
        SystemConfig(vlen_bits=vlen, freq_ghz=freq, l2_mb=l2_mb))


def _plain_types(value) -> bool:
    """Only JSON's Python types (a NumPy scalar is not one, even where
    ``json.dumps`` would accept a ``np.float64``)."""
    if isinstance(value, dict):
        return all(type(k) is str and _plain_types(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_plain_types(v) for v in value)
    return value is None or type(value) in (str, int, float, bool)


class TestPointDict:
    @settings(max_examples=40, deadline=None)
    @given(net=st.sampled_from(sorted(NETS)), prefix=st.sampled_from(PREFIXES),
           vlen=st.sampled_from(VLENS), freq=st.sampled_from(FREQS),
           mode=st.sampled_from(BACKENDS),
           axis=st.lists(st.sampled_from(SIZES), min_size=1, max_size=7))
    def test_point_dict_is_point_to_dict(
            self, net, prefix, vlen, freq, mode, axis):
        column = _recording(net, prefix, vlen, freq).evaluate(axis, mode)
        assert isinstance(column, ColumnResult)
        assert len(column) == len(axis) and column.l2_mbs == tuple(axis)
        for i, l2_mb in enumerate(axis):
            written = column.point_dict(i)
            assert _plain_types(written)
            point = column.point(i)
            assert json.dumps(written) == json.dumps(point.to_dict())
            assert column.cycles(i) == point.cycles
            if mode == BACKEND_EXACT:
                assert point == _fresh(net, prefix, vlen, freq, l2_mb)

    def test_sequence_view(self):
        column = _recording("vgg16", 5, 2048).evaluate([16, 1, 16])
        assert column[-1] == column[0] == column.point(2)
        assert column[::-1] == [column.point(i) for i in (2, 1, 0)]
        assert list(column) == [column.point(i) for i in range(3)]
        with pytest.raises(IndexError):
            column[3]


class TestIsolation:
    def test_mutating_a_point_dict_leaves_other_points(self):
        rec = _recording("yolov3", 9, 512)
        column = rec.evaluate([4, 4, 64], "fast")
        before = [json.dumps(column.point_dict(i)) for i in range(3)]
        mutated = column.point_dict(0)
        mutated["total"]["instructions"]["vsetvl"] = -1
        mutated["per_layer"][0]["elems"].clear()
        mutated["per_layer"][1]["hierarchy"]["l2"]["misses"] = -1
        mutated["total"]["cycles"] = -1.0
        assert [json.dumps(column.point_dict(i)) for i in range(3)] == before
        assert column.point_dict(1) is not column.point_dict(1)

    def test_mutating_a_point_leaves_other_points(self):
        rec = _recording("vgg16", 9, 2048)
        column = rec.evaluate([16, 16, 256])
        before = [json.dumps(column.point_dict(i)) for i in range(3)]
        templates = [json.dumps(t.to_dict()) for t in column.templates]
        point = column.point(0)
        point.total.instrs["vsetvl"] = -1
        point.per_layer[0].elems.clear()
        point.per_layer[1].hierarchy.l2.misses = -1
        point.total.merge(point.per_layer[0])
        assert [json.dumps(column.point_dict(i)) for i in range(3)] == before
        assert [json.dumps(t.to_dict()) for t in column.templates] == templates

    def test_sweep_point_is_materialised_once(self):
        sweep = codesign_sweep("vgg16", list(_layers("vgg16", 5)),
                               vlens=(2048,), l2_mbs=(1, 16), mode="fast")
        before = sweep.to_dict()
        point = sweep.results[(2048, 1)]
        assert sweep.at(2048, 1) is point
        point.total.label = "renamed"
        after = sweep.to_dict()
        assert after["results"][0]["network"]["total"]["label"] == "renamed"
        assert after["results"][1] == before["results"][1]


class TestPickle:
    def test_column_round_trips_as_arrays(self):
        column = _recording("yolov3", 9, 2048).evaluate([64, 1, 8], "fast")
        before = [json.dumps(column.point_dict(i)) for i in range(3)]
        state = column.__getstate__()
        assert "_rows" not in state  # the list copies stay home
        restored = pickle.loads(pickle.dumps(column))
        assert restored.misses.dtype == column.misses.dtype
        assert restored.dram_stall.shape == (len(column.templates), 3)
        assert [json.dumps(restored.point_dict(i)) for i in range(3)] == before
        assert restored == column


class TestSweepPoints:
    def test_merge_keeps_columns_and_prefers_own_points(self):
        layers = list(_layers("vgg16", 5))
        a = codesign_sweep("n", layers, vlens=(512,), l2_mbs=(1, 16))
        b = codesign_sweep("n", layers, vlens=(512, 1024), l2_mbs=(1,))
        merged = a.merge(b)
        assert set(merged.results) == {(512, 1), (512, 16), (1024, 1)}
        assert merged.to_dict()["results"][0] == a.to_dict()["results"][0]
        assert merged.at(1024, 1) == b.at(1024, 1)

    def test_to_json_splices_served_points(self):
        """A served point is held as its JSON text; ``to_json`` splices
        it verbatim, equal to ``json.dumps(to_dict())``, and the point is
        decoded only when looked up."""
        layers = list(_layers("vgg16", 5))
        sweep = codesign_sweep("n", layers, vlens=(512, 1024),
                               l2_mbs=(1, 16))
        texts = {p: json.dumps(sweep.results.point_dict(p))
                 for p in sweep.points}
        mixed = SweepResult(name="n", vlens=sweep.vlens,
                            l2_mbs=sweep.l2_mbs, results={
                                (512, 1): texts[(512, 1)],
                                (512, 16): sweep.at(512, 16),
                                (1024, 1): texts[(1024, 1)],
                                (1024, 16): texts[(1024, 16)]})
        assert mixed.to_json() == json.dumps(sweep.to_dict())
        assert mixed.to_dict() == sweep.to_dict()
        assert mixed.results.point_json((512, 1)) is texts[(512, 1)]
        assert mixed.seconds(1024, 16) == sweep.seconds(1024, 16)
        assert mixed.at(1024, 1) == sweep.at(1024, 1)
        degraded = SweepResult(name="n", vlens=(512,), l2_mbs=(1,),
                               results={(512, 1): texts[(512, 1)]},
                               degraded=True)
        assert degraded.to_json() == json.dumps(degraded.to_dict())

    def test_plain_mapping_is_wrapped(self):
        sweep = codesign_sweep("n", list(_layers("vgg16", 1)),
                               vlens=(512,), l2_mbs=(1,))
        plain = SweepResult(name="n", vlens=(512,), l2_mbs=(1,),
                            results={(512, 1): sweep.at(512, 1)})
        assert plain == sweep
        assert plain.to_dict() == sweep.to_dict()


class TestNoPerPointObjects:
    """A cold fast column over a fine L2 axis builds its ``SimStats``
    only while recording (a template per layer and the network total),
    never per point — also when checkpointing and benchmarking."""

    @pytest.mark.parametrize("extras", ["plain", "checkpoint+recorder"])
    def test_cold_column_builds_no_point_stats(
            self, monkeypatch, tmp_path, extras):
        layers = vgg16_layers()
        built = []
        real_init = SimStats.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("label", ""))
            real_init(self, *args, **kwargs)

        kwargs = {}
        if extras != "plain":
            kwargs = {"checkpoint_dir": tmp_path / "run",
                      "recorder": BenchRecorder()}
        monkeypatch.setattr(SimStats, "__init__", spy)
        sweep = codesign_sweep("vgg16", layers, vlens=(512,),
                               l2_mbs=FINE_AXIS, mode="fast", **kwargs)
        payload = sweep.to_dict()
        monkeypatch.undo()
        assert len(payload["results"]) == len(FINE_AXIS)
        assert len(built) <= 2 * (len(layers) + 1), len(built)

    def test_sweep_summaries_build_no_point_stats(self, monkeypatch):
        """``best()``, ``runtime_grid()``, ``miss_rate_table()`` and
        ``speedup()`` read the column arrays: O(layers) ``SimStats`` for
        a 2 x 48 sweep, not one per point and layer, and the same
        values as the built points."""
        layers = vgg16_layers()
        sweep = codesign_sweep("vgg16", layers, vlens=(512, 2048),
                               l2_mbs=FINE_AXIS, mode="fast")
        built = []
        real_init = SimStats.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("label", ""))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(SimStats, "__init__", spy)
        best = sweep.best()
        grid = sweep.runtime_grid()
        tables = {l: sweep.miss_rate_table(l) for l in (1, 48)}
        speedup = sweep.speedup(2048, 48)
        monkeypatch.undo()
        assert len(built) <= len(layers) + 1, len(built)
        totals = {k: sweep.at(*k).total for k in sweep.points}
        assert best == min(totals, key=lambda k: totals[k].seconds)
        assert grid == {v: {l: totals[(v, l)].seconds for l in FINE_AXIS}
                        for v in (512, 2048)}
        assert tables == {l: {v: totals[(v, l)].l2_miss_rate
                              for v in (512, 2048)} for l in (1, 48)}
        assert speedup == (totals[(512, 1)].seconds
                           / totals[(2048, 48)].seconds)
