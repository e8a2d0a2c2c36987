"""Tests for the observability layer (repro.obs): span nesting and
serialization, the cache simulator's registry counters, event sinks
and JSONL round-trips, run manifests, renderers — and the acceptance
criterion that tracing is observation-only (traced and untraced
simulations are bit-identical, and per-layer span counters sum exactly
to the untraced network totals)."""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.nets import vgg16_layers
from repro.nets.inference import simulate_inference
from repro.obs import (
    LEVEL_WARNING,
    METRICS,
    CallbackSink,
    JsonlSink,
    MemorySink,
    Span,
    TeeSink,
    Tracer,
    counters_from_stats,
    current_tracer,
    event,
    read_jsonl,
    render_trace_text,
    run_manifest,
    seed_state,
    span,
    span_cycles,
    trace_payload,
    tracing,
    warnings_in,
    write_manifest,
)
from repro.obs.manifest import git_rev
from repro.sim import SystemConfig
from tests.metrics_delta import counter_delta

pytestmark = pytest.mark.obs

#: The repository root (a git checkout, or an exported source tree).
REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Spans and tracers.
# ----------------------------------------------------------------------
class TestSpanNesting:
    def test_tracer_builds_tree(self):
        t = Tracer()
        with t.span("root", network="vgg16") as r:
            with t.span("layer", label="conv1_1") as a:
                a.add_counters(flops=10)
            with t.span("layer", label="conv1_2") as b:
                b.add_counters(flops=32)
        assert t.root is r
        assert [c.attrs["label"] for c in r.children] == [
            "conv1_1", "conv1_2"]
        assert r.sum_counter("flops") == 42
        assert [s.name for s in r.walk()] == ["root", "layer", "layer"]
        assert len(r.find("layer")) == 2

    def test_child_wall_time_nested_in_parent(self):
        t = Tracer()
        with t.span("root") as r:
            with t.span("a"), t.span("only-child-of-a"):
                pass
            with t.span("b"):
                pass
        children = sum(c.wall_seconds for c in r.children)
        assert 0 <= children <= r.wall_seconds

    def test_empty_tracer_has_no_root(self):
        with pytest.raises(LookupError):
            Tracer().root

    def test_add_counters_accumulates(self):
        s = Span("x")
        s.add_counters(flops=1, instrs=2)
        s.add_counters(flops=10)
        assert s.counters == {"flops": 11, "instrs": 2}

    def test_attach_grafts_under_open_span(self):
        t = Tracer()
        foreign = Span("sweep_worker")
        with t.span("run_sweep"):
            t.attach(foreign)
        assert t.root.children == [foreign]

    def test_exception_still_closes_span(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("root"):
                with t.span("child"):
                    raise RuntimeError("boom")
        # Both spans closed: a new span opens at the root level.
        with t.span("second"):
            pass
        assert [s.name for s in t.spans] == ["root", "second"]


class TestAmbientTracer:
    def test_span_is_noop_without_tracer(self):
        assert current_tracer() is None
        with span("anything", attr=1) as s:
            s.add_counters(flops=1e9)
            s.set_attrs(label="ignored")
        assert s.counters == {} and "label" not in s.attrs

    def test_tracing_installs_and_restores(self):
        with tracing() as t:
            assert current_tracer() is t
            with span("root") as s:
                s.add_counters(flops=1)
        assert current_tracer() is None
        assert t.root.counters == {"flops": 1}

    def test_nested_tracing_shadows(self):
        with tracing() as outer, tracing() as inner:
            assert current_tracer() is inner
            with span("x"):
                pass
        assert inner.spans and not outer.spans


SPANS = st.recursive(
    st.builds(
        Span,
        name=st.text(min_size=1, max_size=8),
        attrs=st.dictionaries(
            st.text(max_size=6),
            st.one_of(st.integers(), st.text(max_size=6), st.booleans()),
            max_size=3,
        ),
    ),
    lambda inner: st.builds(
        lambda s, kids, counters: (
            s.children.extend(kids), s.add_counters(**counters), s)[-1],
        inner,
        st.lists(inner, max_size=3),
        st.dictionaries(
            st.text(min_size=1, max_size=6),
            st.one_of(
                st.integers(min_value=-2**40, max_value=2**40),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=4,
        ),
    ),
    max_leaves=12,
)


class TestSpanSerialization:
    @given(SPANS)
    def test_to_dict_round_trips(self, s):
        d = s.to_dict()
        assert Span.from_dict(d).to_dict() == d
        # And survives an actual JSON encode/decode.
        assert Span.from_dict(json.loads(json.dumps(d))).to_dict() == d

    def test_round_trip_preserves_structure(self):
        t = Tracer()
        with t.span("root", network="vgg16") as r:
            r.add_counters(flops=7, issue_cycles=1.5)
            with t.span("layer", label="conv1_1"):
                pass
        back = Span.from_dict(t.root.to_dict())
        assert back.name == "root"
        assert back.counters == {"flops": 7, "issue_cycles": 1.5}
        assert [c.attrs["label"] for c in back.children] == ["conv1_1"]


# ----------------------------------------------------------------------
# Counters.
# ----------------------------------------------------------------------
class TestCounterRegistry:
    """The cache simulator's counters on the process registry."""

    def test_cache_hierarchy_feeds_global_registry(self):
        """The trace-driven cache hot path bumps cache.l1.* /
        cache.l2.* counters that match the hierarchy stats exactly."""
        import numpy as np

        from repro.sim.cache import CacheHierarchy

        h = CacheHierarchy(l1_kb=1, l2_mb=1)
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 4096, size=20_000, dtype=np.int64)
        stores = rng.random(20_000) < 0.3
        with METRICS.capture() as cap:
            h.access(lines, stores)
        delta = counter_delta(cap)
        snap = h.snapshot()
        assert delta["cache.l1.accesses"] == snap.l1.accesses
        assert delta["cache.l1.misses"] == snap.l1.misses
        assert delta["cache.l2.accesses"] == snap.l2.accesses
        assert delta["cache.l2.misses"] == snap.l2.misses
        # A delta leaves out counters that did not move (this stream
        # fits in L2, so no L2 writebacks), hence the defaulted lookup.
        assert delta.get("cache.l2.writebacks", 0) == snap.l2.writebacks
        assert delta["cache.l1.evictions"] == snap.l1.evictions
        assert delta["cache.l1.writebacks"] == snap.l1.writebacks

    def test_anonymous_cache_stays_out_of_registry(self):
        """A Cache constructed without a name (scratch simulations)
        leaves the global registry untouched."""
        import numpy as np

        from repro.sim.cache import Cache

        c = Cache(4096, assoc=4)
        with METRICS.capture() as cap:
            c.access_lines(np.arange(512, dtype=np.int64))
        assert cap.delta() == {}
        assert c.stats.accesses == 512


# ----------------------------------------------------------------------
# Events, sinks, JSONL.
# ----------------------------------------------------------------------
class TestEvents:
    def test_event_shape(self):
        ev = event("sweep_start", total=4)
        assert ev == {"event": "sweep_start", "level": "info", "total": 4}
        w = event("pool_degraded", level=LEVEL_WARNING, reason="x")
        assert list(warnings_in([ev, w])) == [w]

    def test_memory_sink_stamps_seq(self):
        sink = MemorySink()
        sink.emit(event("a"))
        sink.emit(event("b"))
        sink.emit(event("a"))
        assert [e["seq"] for e in sink.events] == [0, 1, 2]
        assert [e["event"] for e in sink.of_kind("a")] == ["a", "a"]

    def test_callback_and_tee(self):
        seen = []
        mem = MemorySink()
        tee = TeeSink(CallbackSink(seen.append), mem)
        tee.emit(event("x"))
        tee.emit(event("y"))
        # Each branch numbers its own stream.
        assert [e["seq"] for e in seen] == [0, 1]
        assert [e["seq"] for e in mem.events] == [0, 1]


EVENT_PAYLOADS = st.dictionaries(
    st.text(min_size=1, max_size=8).filter(
        lambda k: k not in ("event", "level", "seq")),
    st.one_of(
        st.integers(min_value=-2**40, max_value=2**40),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=12),
        st.booleans(),
        st.none(),
    ),
    max_size=4,
)


class TestJsonl:
    @given(st.lists(EVENT_PAYLOADS, max_size=8))
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
              deadline=None)
    def test_jsonl_round_trip(self, tmp_path, payloads):
        path = tmp_path / "events.jsonl"
        path.unlink(missing_ok=True)
        with JsonlSink(path) as sink:
            for p in payloads:
                sink.emit(event("tick", **p))
        back = read_jsonl(path)
        assert back == [
            {"event": "tick", "level": "info", **p, "seq": i}
            for i, p in enumerate(payloads)
        ]

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(event("a"))
            sink.emit(event("b"))
        with path.open("a") as f:
            f.write('{"event": "torn", "le')  # simulated kill mid-write
        back = read_jsonl(path)
        assert [e["event"] for e in back] == ["a", "b"]

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "events.jsonl")
        sink.emit(event("a"))
        sink.close()
        sink.close()  # second close is a no-op, not an error
        assert [e["event"] for e in read_jsonl(sink.path)] == ["a"]

    def test_emit_after_close_raises_obs_error(self, tmp_path):
        from repro.errors import ObsError, ReproError

        sink = JsonlSink(tmp_path / "events.jsonl")
        sink.close()
        with pytest.raises(ObsError, match="closed JsonlSink") as exc:
            sink.emit(event("late"))
        # Part of the repo's error taxonomy, and the message names the
        # file and the event so the lifecycle bug is findable.
        assert isinstance(exc.value, ReproError)
        assert "events.jsonl" in str(exc.value)
        assert "late" in str(exc.value)


# ----------------------------------------------------------------------
# Forward compatibility: unknown trace keys survive a load/save cycle.
# ----------------------------------------------------------------------
_KNOWN_SPAN_KEYS = {"name", "wall_seconds", "attrs", "counters", "children"}

UNKNOWN_KEYS = st.dictionaries(
    st.text(min_size=1, max_size=10).filter(
        lambda k: k not in _KNOWN_SPAN_KEYS),
    st.one_of(
        st.integers(min_value=-2**40, max_value=2**40),
        st.text(max_size=8),
        st.booleans(),
        st.none(),
        st.lists(st.integers(min_value=0, max_value=99), max_size=3),
        st.dictionaries(st.text(max_size=4),
                        st.integers(min_value=0, max_value=99), max_size=2),
    ),
    max_size=4,
)


class TestForwardCompat:
    @given(extra=UNKNOWN_KEYS, nested=UNKNOWN_KEYS)
    def test_unknown_keys_round_trip_untouched(self, extra, nested):
        """A trace written by a newer schema (extra top-level or
        per-child keys) survives Span.from_dict -> to_dict byte-for-
        byte: unknown keys are carried, never dropped or reordered into
        the known fields."""
        doc = {
            "name": "root",
            "wall_seconds": 0.25,
            "attrs": {"label": "r", "freq_ghz": 2.0},
            "counters": {"flops": 8.0},
            "children": [{
                "name": "layer",
                "wall_seconds": 0.125,
                "attrs": {"label": "conv"},
                "counters": {},
                "children": [],
                **nested,
            }],
            **extra,
        }
        back = Span.from_dict(doc).to_dict()
        assert back == doc

    def test_unknown_keys_never_shadow_known_fields(self):
        s = Span.from_dict({"name": "n", "children": []})
        s.extra = {"name": "shadow", "future_key": 1}
        d = s.to_dict()
        # setdefault semantics: a colliding extra key loses to the
        # real field; genuinely unknown keys ride along.
        assert d["name"] == "n"
        assert d["future_key"] == 1


# ----------------------------------------------------------------------
# Manifests.
# ----------------------------------------------------------------------
class TestManifest:
    def test_run_manifest_fields(self):
        m = run_manifest("profile", config={"vlen_bits": 1024},
                         backend="exact", seed=7, extra={"network": "vgg16"})
        assert m["schema"] == 1 and m["tool"] == "repro"
        assert m["command"] == "profile"
        assert m["backend"] == "exact"
        assert m["config"] == {"vlen_bits": 1024}
        assert m["network"] == "vgg16"
        assert m["seed_state"]["seed"] == 7
        if (REPO_ROOT / ".git").exists():
            # A git checkout: the revision resolves.
            assert isinstance(m["git_rev"], str) and len(m["git_rev"]) >= 7
        else:
            # An exported tree (e.g. ``git archive``) has no revision.
            assert m["git_rev"] is None

    def test_git_rev_is_none_outside_a_checkout(self, tmp_path):
        assert git_rev(cwd=tmp_path) is None

    def test_seed_state_digest_is_stable_shape(self):
        s = seed_state()
        assert set(s) >= {"seed", "random_state_digest"}
        assert len(s["random_state_digest"]) == 16

    def test_write_manifest(self, tmp_path):
        path = write_manifest(tmp_path / "run", run_manifest("profile"))
        assert path.name == "manifest.json"
        assert json.loads(path.read_text())["command"] == "profile"


# ----------------------------------------------------------------------
# Renderers.
# ----------------------------------------------------------------------
class TestRender:
    def _trace(self, freq: bool = True):
        t = Tracer()
        attrs = {"network": "vgg16"}
        if freq:
            attrs["freq_ghz"] = 2.0
        t_span = t.span("simulate_inference", **attrs)
        with t_span as r:
            with t.span("layer", label="conv1_1") as a:
                a.add_counters(issue_cycles=1e6, l2_stall_cycles=2e5,
                               dram_stall_cycles=5e4, instrs=1000,
                               flops=2_000_000, dram_bytes=4096)
            r.add_counters(issue_cycles=1e6, l2_stall_cycles=2e5,
                           dram_stall_cycles=5e4, instrs=1000,
                           flops=2_000_000, dram_bytes=4096)
        return t.root

    def test_span_cycles_derived_from_components(self):
        root = self._trace()
        assert span_cycles(root) == 1e6 + 2e5 + 5e4
        assert span_cycles(Span("bare")) is None

    def test_span_cycles_none_without_frequency(self):
        """Cycle parts without a clock anywhere on the root path are
        not renderable as cycles: span_cycles returns None and the
        text renderer shows an em dash, never a number computed from
        an assumed frequency."""
        root = self._trace(freq=False)
        assert span_cycles(root) is None
        assert span_cycles(root.children[0], (root,)) is None
        text = render_trace_text(root)
        assert "cycles=—" in text.splitlines()[0]

    def test_span_cycles_inherits_frequency_from_ancestors(self):
        root = self._trace()
        child = root.children[0]
        assert "freq_ghz" not in child.attrs
        assert span_cycles(child, (root,)) == 1e6 + 2e5 + 5e4
        # Without the ancestor path the child has no clock.
        assert span_cycles(child) is None

    def test_text_tree(self):
        text = render_trace_text(self._trace())
        lines = text.splitlines()
        assert lines[0].startswith("simulate_inference")
        assert lines[1].lstrip().startswith("conv1_1")
        assert "cycles=" in lines[1] and "flops=" in lines[1]

    def test_trace_payload_includes_manifest(self):
        root = self._trace()
        payload = trace_payload(root, {"command": "profile"})
        assert payload["manifest"] == {"command": "profile"}
        assert payload["trace"]["name"] == "simulate_inference"


# ----------------------------------------------------------------------
# The acceptance criterion: tracing is observation-only and exact.
# ----------------------------------------------------------------------
class TestTracingExactness:
    NET = "vgg16"

    @pytest.fixture(scope="class")
    def layers(self):
        return vgg16_layers()[:3]

    @pytest.fixture(scope="class")
    def untraced(self, layers):
        return simulate_inference(self.NET, layers, SystemConfig())

    def test_traced_run_is_bit_identical(self, layers, untraced):
        tracer = Tracer()
        with tracing(tracer):
            traced = simulate_inference(self.NET, layers, SystemConfig())
        assert traced == untraced
        assert traced.total.cycles == untraced.total.cycles

    def test_layer_span_counters_sum_to_network_totals(
            self, layers, untraced):
        tracer = Tracer()
        with tracing(tracer):
            simulate_inference(self.NET, layers, SystemConfig())
        root = tracer.root
        assert root.name == "simulate_inference"
        assert len(root.children) == len(layers)
        totals = counters_from_stats(untraced.total)
        for name, expected in totals.items():
            assert root.sum_counter(name) == expected, name
            assert root.counters[name] == expected, name
        # Derived cycles from the primitive components is exact too.
        assert span_cycles(root) == untraced.total.cycles

    def test_profile_cli_json_matches_untraced_totals(
            self, capsys, layers, untraced):
        """`repro profile vgg16 --json`: summed per-layer span counters
        equal the untraced simulate_inference totals, bit for bit."""
        assert main(["profile", self.NET, "--layers", str(len(layers)),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        trace = payload["trace"]
        assert payload["manifest"]["command"] == "profile"
        totals = counters_from_stats(untraced.total)
        for name, expected in totals.items():
            summed = sum(c["counters"][name] for c in trace["children"])
            assert summed == expected, name
            assert trace["counters"][name] == expected, name

    def test_profile_cli_trace_dir(self, tmp_path, capsys):
        trace_dir = tmp_path / "prof"
        assert main(["profile", self.NET, "--layers", "1",
                     "--trace", str(trace_dir)]) == 0
        capsys.readouterr()
        manifest = json.loads((trace_dir / "manifest.json").read_text())
        assert manifest["command"] == "profile"
        trace = json.loads((trace_dir / "trace.json").read_text())
        assert trace["trace"]["name"] == "simulate_inference"
        assert len(trace["trace"]["children"]) == 1

    def test_pooled_sweep_merges_worker_metrics(self, monkeypatch):
        """Pool workers ship their metrics deltas home: a traced pooled
        sweep moves the parent's counters exactly as the serial run
        does.  Failing every rounding certificate makes each column
        bump ``model.replay_fallbacks`` inside the worker."""
        import numpy as np

        import repro.model.traffic as traffic
        from repro.codesign import codesign_sweep

        certified = traffic._certified

        def doubtful(estimates, factor):
            counts, ok = certified(estimates, factor)
            return counts, np.zeros_like(ok)

        monkeypatch.setattr(traffic, "_certified", doubtful)
        layers = vgg16_layers()[:2]
        deltas, sweeps = [], []
        for workers in (1, 2):
            with tracing(Tracer()), METRICS.capture() as cap:
                sweeps.append(codesign_sweep(
                    "vgg-head", layers, vlens=(512, 1024), l2_mbs=(1, 16),
                    workers=workers))
            deltas.append(counter_delta(cap))
        serial, pooled = sweeps
        assert not pooled.degraded, "the pool must really run"
        assert pooled == serial
        # One fallback per layer's L1 split and per layer and L2 size.
        assert deltas[0] == {traffic.FALLBACK_COUNTER: 2 * 2 * (1 + 2)}
        assert deltas[1] == deltas[0]

    def test_sweep_worker_spans_merge_into_parent_trace(self):
        """A traced parallel sweep grafts one worker subtree per point
        and the merged worker counters match the sweep's own results."""
        from repro.codesign import codesign_sweep

        layers = vgg16_layers()[:1]
        tracer = Tracer()
        with tracing(tracer):
            sweep = codesign_sweep("vgg-head", layers, vlens=(512, 1024),
                                   l2_mbs=(1,), workers=2)
        root = tracer.root
        assert root.name == "run_sweep"
        workers = root.find("sweep_worker")
        assert len(workers) == 2
        # Each worker subtree carries the point's simulate_inference
        # span; summed over workers the counters match the results that
        # travelled back separately, bit for bit.
        nets = root.find("simulate_inference")
        assert len(nets) == 2
        for counter, stat in (("issue_cycles", "issue_cycles"),
                              ("flops", "flops")):
            assert sum(n.counters[counter] for n in nets) == sum(
                getattr(r.total, stat) for r in sweep.results.values())
