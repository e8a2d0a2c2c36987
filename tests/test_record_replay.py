"""Tests for the network record/replay core (repro.nets.inference).

Both backends of the co-design sweep record each network column once
(phase models, condensed traffic and the L1 split, all independent of
the L2 size) and replay it per L2 capacity.  These tests pin the
contract: exact replay is bit-identical to a fresh simulation at every
grid point, and both L2 criteria replay through the same span tree.
"""

import os
import time

import pytest

from repro.nets import vgg16_layers
from repro.nets.inference import record_inference, simulate_inference
from repro.sim import SystemConfig


@pytest.fixture(scope="module")
def prefix():
    """A small VGG16 prefix: enough structure, fast to simulate."""
    return vgg16_layers()[:3]


class TestRecordReplayIdentity:
    def test_replay_matches_fresh_simulation_across_grid(self, prefix):
        for vlen in (512, 2048):
            cfg = SystemConfig(vlen_bits=vlen, l2_mb=1)
            rec = record_inference("vgg16-3L", prefix, cfg)
            for l2 in (1, 4, 64):
                replayed = rec.evaluate(l2)
                fresh = simulate_inference(
                    "vgg16-3L", prefix, cfg.with_(l2_mb=l2)
                )
                assert replayed == fresh

    def test_recording_is_l2_independent(self, prefix):
        """The invariant the sweep exploits: a recording made at any
        L2 size evaluates identically at every other."""
        at_1 = record_inference("n", prefix, SystemConfig(l2_mb=1))
        at_64 = record_inference("n", prefix, SystemConfig(l2_mb=64))
        assert at_1.evaluate(16) == at_64.evaluate(16)

    def test_replay_respects_variant_and_hybrid(self, prefix):
        cfg = SystemConfig()
        rec = record_inference("n", prefix, cfg, hybrid=False,
                               variant="indexed")
        fresh = simulate_inference("n", prefix, cfg, hybrid=False,
                                   variant="indexed")
        assert rec.evaluate(cfg.l2_mb) == fresh

    def test_replay_spans_match_live_simulation(self, prefix):
        """A traced replay must emit the same span tree with the same
        per-layer counters as a traced live simulation — the
        traced==untraced bit-identity contract extends to replay."""
        from repro.obs import Tracer, tracing

        cfg = SystemConfig()
        rec = record_inference("n", prefix, cfg)
        live_tracer, replay_tracer = Tracer(), Tracer()
        with tracing(live_tracer):
            simulate_inference("n", prefix, cfg)
        with tracing(replay_tracer):
            rec.evaluate(cfg.l2_mb)
        live, replay = live_tracer.root, replay_tracer.root
        assert replay.name == live.name == "simulate_inference"
        live_layers = live.find("layer")
        replay_layers = replay.find("layer")
        assert len(replay_layers) == len(live_layers) == len(prefix)
        for a, b in zip(replay_layers, live_layers):
            assert a.counters == b.counters
            assert a.attrs.get("label") == b.attrs.get("label")

    def test_fast_replay_spans_match_exact_replay(self, prefix):
        """Both L2 criteria replay through the same span structure: a
        traced fast evaluation has the exact one's
        ``simulate_inference``/``layer`` tree and labels."""
        from repro.codesign import BACKEND_EXACT, BACKEND_FAST
        from repro.obs import Tracer, tracing

        rec = record_inference("n", prefix, SystemConfig())
        trees = {}
        for mode in (BACKEND_EXACT, BACKEND_FAST):
            tracer = Tracer()
            with tracing(tracer):
                rec.evaluate(16, mode)
            trees[mode] = tracer.root
        exact, fast = trees[BACKEND_EXACT], trees[BACKEND_FAST]
        assert fast.name == exact.name == "simulate_inference"
        assert ([s.name for s in fast.walk()]
                == [s.name for s in exact.walk()])
        assert ([s.attrs.get("label") for s in fast.find("layer")]
                == [s.attrs.get("label") for s in exact.find("layer")])

    def test_record_spans_break_down_each_layer(self, prefix):
        """Recording opens one ``record_layer`` span per layer, split
        into ``phase_models`` and ``condense``, carrying the layer's
        L2-independent counters."""
        from repro.obs import Tracer, tracing

        cfg = SystemConfig()
        tracer = Tracer()
        with tracing(tracer):
            rec = record_inference("n", prefix, cfg)
        root = tracer.root
        assert root.name == "record_inference"
        layer_spans = root.find("record_layer")
        assert len(layer_spans) == len(prefix)
        for sp, layer in zip(layer_spans, rec.layers):
            t = layer.template
            assert [c.name for c in sp.children] == ["phase_models",
                                                     "condense"]
            assert sp.attrs["label"] == t.label
            assert sp.counters == {
                "instrs": t.total_instrs,
                "flops": t.flops,
                "issue_cycles": t.issue_cycles,
                "l1_accesses": t.hierarchy.l1.accesses,
                "l1_misses": t.hierarchy.l1.misses,
            }


@pytest.mark.bench
@pytest.mark.skipif(
    not os.environ.get("REPRO_RUN_WALL_BENCH"),
    reason="wall-time guard; set REPRO_RUN_WALL_BENCH=1 to run",
)
def test_replay_speedup_guard():
    """Replaying a recorded column must beat a fresh exact simulation
    by >= 10x per grid point (the tentpole's acceptance bar).  Skipped
    by default: wall-time assertions are hostile to loaded CI boxes."""
    layers = vgg16_layers()
    cfg = SystemConfig(vlen_bits=512, l2_mb=1)
    t0 = time.perf_counter()
    rec = record_inference("vgg16", layers, cfg)
    record_secs = time.perf_counter() - t0
    t0 = time.perf_counter()
    fresh = simulate_inference("vgg16", layers, cfg.with_(l2_mb=16))
    fresh_secs = time.perf_counter() - t0
    replay_secs = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        replayed = rec.evaluate(16)
        replay_secs = min(replay_secs, time.perf_counter() - t0)
    assert replayed == fresh  # never trade correctness for speed
    speedup = fresh_secs / replay_secs
    print(f"\nrecord {record_secs:.2f}s  fresh point {fresh_secs:.2f}s  "
          f"replay {1e3 * replay_secs:.1f}ms  speedup {speedup:.1f}x")
    assert speedup >= 10.0, speedup
