"""One condensation pass per VLEN column.

A recording gathers each distinct layer's traffic
(``CondensedTraffic.from_phases``) and condenses, L1-splits and replays
all of them together (``ColumnTraffic`` / ``ColumnSplit``).  These tests
pin that pass against the per-layer references on random columns:

- every layer's L1 counters and every (layer, size) L2 miss and
  writeback count equal ``evaluate_hierarchy`` (smooth) and the scalar
  sharp rule of that layer alone, and each layer's condensed view is
  byte for byte its one-layer condensation;
- a doubtful count falls back for its own (layer, size) only, with one
  ``model.replay_fallbacks`` each;
- a cold column makes a fixed number of ``np.unique``/``np.bincount``
  calls, whatever its layer count.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.traffic import (
    COLD,
    FALLBACK_COUNTER,
    ColumnSplit,
    ColumnTraffic,
    CondensedTraffic,
    L1Split,
    PhaseModel,
    evaluate_hierarchy,
)
from repro.nets import vgg16_layers, yolov3_layers
from repro.nets.darknet_cfg import build_layers
from repro.nets.inference import BACKENDS, layer_phase_models, record_inference
from repro.obs import METRICS
from repro.sim import SystemConfig
from tests.metrics_delta import counter_delta
from tests.test_axis_replay import sharp_reference

MB = 1 << 20


def _cfg(widths: tuple[int, int, int]) -> str:
    """A small darknet network with every layer kind the models know."""
    c0, c1, c2 = widths
    return "\n".join([
        "[net]", "height=16", "width=16", "channels=3", "",
        "[convolutional]", f"filters={c0}", "size=3", "stride=1", "pad=1", "",
        "[convolutional]", f"filters={c1}", "size=3", "stride=2", "pad=1", "",
        "[convolutional]", f"filters={c0}", "size=1", "stride=1", "pad=1", "",
        "[convolutional]", f"filters={c1}", "size=3", "stride=1", "pad=1", "",
        "[shortcut]", "from=-3", "",
        "[maxpool]", "size=2", "stride=2", "",
        "[convolutional]", f"filters={c2}", "size=1", "stride=1", "pad=1", "",
    ]) + "\n"


@lru_cache(maxsize=None)
def _pool(source: str) -> tuple:
    if source == "vgg16":
        return tuple(vgg16_layers(height=32, width=32))
    if source == "yolov3":
        return tuple(yolov3_layers(height=32, width=32))
    return tuple(build_layers(_cfg(tuple(int(w) for w in source.split(",")))))


_SOURCES = st.one_of(
    st.sampled_from(["vgg16", "yolov3"]),
    st.tuples(*[st.sampled_from([8, 16, 24])] * 3).map(
        lambda ws: ",".join(map(str, ws))))

#: A column's layers: picks from VGG16, YOLOv3 and cfg networks, mixed.
_LAYER_MIXES = st.lists(
    st.tuples(_SOURCES, st.integers(min_value=0, max_value=40)).map(
        lambda pick: _pool(pick[0])[pick[1] % len(_pool(pick[0]))]),
    min_size=1, max_size=6)


def _record(layers, vlen: int, hybrid: bool):
    """The phases of each layer and the recording of all of them."""
    cfg = SystemConfig(vlen_bits=vlen)
    phases = [layer_phase_models(layer, cfg, hybrid=hybrid)[1]
              for layer in layers]
    return cfg, phases, record_inference("mix", list(layers), cfg,
                                         hybrid=hybrid)


def _condensed_bytes(tr: CondensedTraffic) -> tuple:
    return (tr.eff_unique.tobytes(), tr.region_unique.tobytes(),
            tr.totals.tobytes(), tr.n_classes, tr.error_factor)


class TestColumnParity:
    @settings(max_examples=15, deadline=None)
    @given(layers=_LAYER_MIXES, vlen=st.sampled_from([512, 2048]),
           hybrid=st.booleans(),
           sizes=st.lists(st.sampled_from([1, 2, 8, 64]), min_size=1,
                          max_size=2))
    def test_every_layer_matches_its_references(self, layers, vlen, hybrid,
                                                sizes):
        cfg, phases, rec = _record(layers, vlen, hybrid)
        column = rec.column
        l1 = cfg.l1_kb * 1024
        l2_bytes = [mb * MB for mb in sizes]
        smooth = column.smooth_l2(l2_bytes)
        sharp = column.sharp_l2(l2_bytes)
        for k, (layer, ph) in enumerate(zip(rec.layers, phases)):
            split, row = layer.split, layer.split.row
            alone = CondensedTraffic.from_phases(ph)
            assert _condensed_bytes(split.traffic) == _condensed_bytes(alone)
            assert (column.traffic.error_factors[row]
                    == alone.error_factor)
            for i, l2 in enumerate(l2_bytes):
                h = evaluate_hierarchy(ph, l1, l2, cfg.line_bytes)
                assert (split.accesses, split.misses) == (
                    h.l1.accesses, h.l1.misses)
                assert (smooth[0][row, i], smooth[1][row, i]) == (
                    h.l2.misses, h.l2.writebacks)
                want = sharp_reference(alone.l1_split(l1, cfg.line_bytes), l2)
                assert (sharp[0][row, i], sharp[1][row, i]) == tuple(
                    round(x) for x in want)

    @pytest.mark.parametrize("mode", BACKENDS)
    def test_replayed_rows_are_the_column_rows(self, mode):
        layers = list(_pool("vgg16")) + list(_pool("8,16,24"))
        _, _, rec = _record(layers, 2048, True)
        criterion = (ColumnSplit.smooth_l2 if mode == "exact"
                     else ColumnSplit.sharp_l2)
        misses, writebacks = criterion(rec.column, [MB, 16 * MB])
        result = rec.evaluate([1, 16], mode)
        for k, layer in enumerate(rec.layers):
            assert result.misses[k].tolist() == misses[layer.split.row].tolist()
            assert (result.writebacks[k].tolist()
                    == writebacks[layer.split.row].tolist())
        assert result.misses[-1].tolist() == result.misses[:-1].sum(0).tolist()


def _phase(name: str, *appends) -> CondensedTraffic:
    ph = PhaseModel(name)
    for i, (accesses, distance, kwargs) in enumerate(appends):
        ph.add_traffic(f"{name}{i}", accesses, distance, **kwargs)
    return CondensedTraffic.from_phases([ph])


class TestForcedFallbacks:
    def test_only_the_doubtful_layer_and_size_fall_back(self, monkeypatch):
        """Layer 1's half-integer store is written back only below its
        8 MB region, so only its 4 MB count is doubtful; layer 3's lone
        half-integer cold store is doubtful in its L1 split and at every
        size.  Each doubtful (layer, size) runs its own reference once
        and bumps the counter once; the other layers stay certified."""
        cfg = SystemConfig(vlen_bits=2048)
        real = [CondensedTraffic.from_phases(
                    layer_phase_models(layer, cfg)[1])
                for layer in _pool("vgg16")[:2]]
        layers = [
            real[0],
            _phase("w", (1000.25, COLD, {}),
                   (2.5, COLD, {"is_store": True, "region": 8.0 * MB})),
            real[1],
            _phase("c", (2.5, COLD, {"is_store": True})),
        ]
        axis = [16 * MB, 4 * MB, 32 * MB]
        calls = []
        reference = L1Split._smooth_reference

        def spy(split, l2_eff):
            calls.append((split.row, l2_eff))
            return reference(split, l2_eff)

        monkeypatch.setattr(L1Split, "_smooth_reference", spy)
        with METRICS.capture() as cap:
            column = ColumnTraffic.condense(layers).l1_split(64 * 1024)
            assert counter_delta(cap) == {FALLBACK_COUNTER: 1}
            misses, writebacks = column.smooth_l2(axis)
            assert counter_delta(cap) == {FALLBACK_COUNTER: 5}
        assert calls == [(1, 4.0 * MB), (3, 16.0 * MB), (3, 4.0 * MB),
                         (3, 32.0 * MB)]
        assert column.accesses[[1, 3]].tolist() == [1003, 2]
        assert misses[[1, 3]].tolist() == [[1003] * 3, [2] * 3]
        assert writebacks[[1, 3]].tolist() == [[0, 2, 0], [2] * 3]
        for k in (0, 2):
            alone = layers[k].l1_split(64 * 1024)
            got = [a[k].tolist() for a in (misses, writebacks)]
            want = alone.column.smooth_l2(axis)
            assert got == [want[0][0].tolist(), want[1][0].tolist()]
            assert column.accesses[k] == alone.accesses
            assert column.misses[k] == alone.misses


class TestBatchedCalls:
    @pytest.mark.parametrize("mode", BACKENDS)
    def test_calls_do_not_grow_with_the_layer_count(self, monkeypatch, mode):
        """A cold column of 2 or of 18 distinct layers makes the same
        number of ``np.unique`` and ``np.bincount`` calls."""
        counts: dict[str, int] = {}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("unique", "bincount"):
            monkeypatch.setattr(np, name, spy(name, getattr(np, name)))
        seen = []
        for layers in (list(_pool("vgg16")[:2]),
                       list(_pool("vgg16")) + list(_pool("yolov3")[:6])):
            distinct = {replace(layer, name="") for layer in layers}
            counts.clear()
            _, _, rec = _record(layers, 512, True)
            rec.evaluate([1, 4, 16], mode)
            seen.append((len(distinct), dict(counts)))
        (few, small), (many, large) = seen
        assert few == 2 and many >= 10
        assert small == large and small["unique"] >= 2
