"""Each distinct layer is recorded once per VLEN column.

:func:`record_inference` models layers that differ only in their names
(VGG16's repeated 3x3 convolutions, YOLOv3's residual blocks) once per
call: a later such layer shares the first one's :class:`L1Split` and
gets its own template.  These tests pin the memoised recording byte for
byte against a fresh per-layer recording (and, under ``exact``, its
replay against :func:`simulate_inference`), check the trace of a hit,
and check that no mutable object is shared between layers.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conv.layer import ConvLayerSpec
from repro.errors import ConfigError
from repro.kernels.tuple_mult import INDEXED, SLIDEUP
from repro.nets import simulate_inference, vgg16_layers, yolov3_layers
from repro.nets.inference import BACKENDS, record_inference
from repro.nets.layers import MaxPoolSpec, ShortcutSpec
from repro.obs import Tracer, tracing
from repro.sim import SimStats, SystemConfig

NETS = {"vgg16": vgg16_layers, "yolov3": yolov3_layers}
SHAPES = ((32, 64), (64, 32), (64, 96))


@lru_cache(maxsize=None)
def _net(net: str, height: int, width: int) -> tuple:
    return tuple(NETS[net](height=height, width=width))


def _key(layer):
    return replace(layer, name="")


_net_prefixes = st.builds(
    lambda net, shape, n: list(_net(net, *shape)[:n]),
    st.sampled_from(sorted(NETS)), st.sampled_from(SHAPES),
    st.integers(min_value=1, max_value=20))

_geometries = st.one_of(
    st.builds(lambda c, hw, k, ks, s: ConvLayerSpec("g", c, hw, hw + 4, k,
                                                    ks, s, ks // 2),
              st.sampled_from([3, 8, 16]), st.sampled_from([8, 12]),
              st.sampled_from([8, 16]), st.sampled_from([1, 3]),
              st.sampled_from([1, 2])),
    st.builds(lambda c, hw: ShortcutSpec("g", c, hw, hw),
              st.sampled_from([8, 16]), st.sampled_from([8, 12])),
    st.builds(lambda c, hw: MaxPoolSpec("g", c, hw, hw),
              st.sampled_from([8, 16]), st.sampled_from([8, 12])),
)

#: A few geometries picked repeatedly, every layer under its own name.
_duplicated = st.builds(
    lambda bases, picks: [replace(bases[p % len(bases)], name=f"x{i}")
                          for i, p in enumerate(picks)],
    st.lists(_geometries, min_size=1, max_size=3),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=7))


def _split_bytes(split) -> tuple:
    tr = split.traffic
    return (split.l1_miss.tobytes(), split.group_to_l2.tobytes(),
            split.accesses, split.misses, split.line_bytes,
            tr.eff_unique.tobytes(), tr.region_unique.tobytes(),
            tr.totals.tobytes(), tr.n_classes, tr.error_factor)


class TestMemoEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(layers=st.one_of(_net_prefixes, _duplicated),
           vlen=st.sampled_from([512, 2048]), hybrid=st.booleans(),
           variant=st.sampled_from([SLIDEUP, INDEXED]),
           sizes=st.lists(st.sampled_from([1, 4, 64]), min_size=1,
                          max_size=2))
    def test_memoised_recording_equals_fresh_layers(
            self, layers, vlen, hybrid, variant, sizes):
        cfg = SystemConfig(vlen_bits=vlen)
        rec = record_inference("net", layers, cfg, hybrid=hybrid,
                               variant=variant)
        first: dict = {}
        for k, (layer, got) in enumerate(zip(layers, rec.layers)):
            fresh = record_inference("net", [layer], cfg, hybrid=hybrid,
                                     variant=variant).layers[0]
            assert got.template.to_dict() == fresh.template.to_dict()
            assert _split_bytes(got.split) == _split_bytes(fresh.split)
            j = first.setdefault(_key(layer), k)
            # A hit shares the first occurrence's split, nothing else.
            assert got.split is rec.layers[j].split
            if j != k:
                a, b = got.template, rec.layers[j].template
                assert a is not b and a.instrs is not b.instrs
                assert a.elems is not b.elems
                assert a.hierarchy is not b.hierarchy
        assert len({id(r.split) for r in rec.layers}) == len(first)
        for mode in BACKENDS:
            # A repeat's rows are its first occurrence's, replayed once.
            column = rec.evaluate(sizes, mode)
            for k, layer in enumerate(layers):
                alone = record_inference("net", [layer], cfg, hybrid=hybrid,
                                         variant=variant).evaluate(sizes, mode)
                for got, want in ((column.misses, alone.misses),
                                  (column.writebacks, alone.writebacks),
                                  (column.dram_stall, alone.dram_stall)):
                    assert got[k].tobytes() == want[0].tobytes()
        assert list(rec.evaluate(sizes)) == [
            simulate_inference("net", layers, cfg.with_(l2_mb=mb),
                               hybrid=hybrid, variant=variant)
            for mb in sizes]


    def test_unknown_layer_types_still_raise_config_error(self):
        # An unhashable one cannot be a memo key either; a nameless one
        # has no name for the layer's span.
        for odd in (SimpleNamespace(name="odd"), object()):
            layers = [*_net("vgg16", 32, 32)[:2], odd]
            for run in (record_inference, simulate_inference):
                with pytest.raises(ConfigError, match="unknown layer type"):
                    run("net", layers, SystemConfig())


def _vgg16_small() -> list:
    return list(_net("vgg16", 64, 64))


class TestHits:
    def test_hits_carry_reused_from_and_their_counters(self):
        layers = _vgg16_small()
        tracer = Tracer()
        with tracing(tracer):
            rec = record_inference("vgg16", layers, SystemConfig())
        spans = tracer.root.find("record_layer")
        assert len(spans) == len(layers)
        assert tracer.root.children == [*spans, *tracer.root.find("condense")]
        first: dict = {}
        hits = 0
        for sp, layer, lr in zip(spans, layers, rec.layers):
            name = first.setdefault(_key(layer), layer.name)
            if name == layer.name:
                assert [c.name for c in sp.children] == ["phase_models"]
                assert "reused_from" not in sp.attrs
            else:
                hits += 1
                assert sp.children == []
                assert sp.attrs["reused_from"] == name
            t = lr.template
            assert sp.attrs["label"] == t.label
            assert t.label.startswith(layer.name + "[")
            assert sp.counters == {
                "instrs": t.total_instrs,
                "flops": t.flops,
                "issue_cycles": t.issue_cycles,
                "l1_accesses": t.hierarchy.l1.accesses,
                "l1_misses": t.hierarchy.l1.misses,
            }
        # conv3_3, conv4_3, conv5_2 and conv5_3 repeat their predecessor.
        assert hits == 4
        assert len(tracer.root.find("phase_models")) == len(layers) - hits
        (condense,) = tracer.root.find("condense")
        assert condense.attrs["layers"] == len(layers) - hits

    def test_mutating_one_template_leaves_the_other_layers(self):
        layers = _vgg16_small()
        rec = record_inference("vgg16", layers, SystemConfig())
        keys = [_key(layer) for layer in layers]
        hit = next(k for k in range(len(keys)) if keys[k] in keys[:k])
        first = keys.index(keys[hit])
        for victim in (hit, first):
            before = [r.template.to_dict() for r in rec.layers]
            total = rec.total.to_dict()
            t = rec.layers[victim].template
            t.instrs.clear()
            t.elems["vfma"] = 1
            t.hierarchy.l1.misses += 7
            t.hierarchy.l2.accesses += 7
            t.issue_cycles = -1.0
            for k, r in enumerate(rec.layers):
                if k != victim:
                    assert r.template.to_dict() == before[k]
            assert rec.total.to_dict() == total

    def test_total_template_is_merged_once_in_layer_order(self):
        layers = list(_net("yolov3", 64, 96))
        rec = record_inference("yolo", layers, SystemConfig())
        total = SimStats(freq_ghz=2.0, label="yolo total")
        for layer in layers:
            total.merge(record_inference("yolo", [layer], SystemConfig())
                        .layers[0].template)
        assert total.to_dict() == rec.total.to_dict()
        column = rec.evaluate([1, 16])
        assert column.templates[-1] is rec.total
        assert rec.evaluate([1, 16]).point_dict(1) == column.point_dict(1)
