"""The benchmark's metric catalogue and how each value is computed.

End-to-end metrics are measured with tracing off and apply to every
workload; an *operation* is one cold sweep column, one served query or
one kernel case, and an *item* is one grid point (sweeps, served
queries) or one simulated instruction (kernel cases).  A failed or
unverified operation counts as an infinite latency.

Per-layer metrics come from a traced run.  Host time is reported as a
share of the run's timed window (``%``; a server running two worker
threads can exceed 100), so a layer a workload never enters reads 0.
Layers are this repository's modules; each metric names the
end-to-end metric it should move in the README's map.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from tracing import WRAPPED_NAMES

#: (name, unit, better)
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("items_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("cold_op_p50_ms", "ms", "lower"),
)


#: Probe time (s) of the reference host that reported times are scaled
#: to: this 2-vCPU host's probe median when it runs at full speed.
PROBE_REF_S = 0.006

#: Probes taken within this many seconds of an interval describe the
#: host speed during it.
LOCAL_S = 3.0


def probe() -> float:
    """Seconds for a fixed slice of interpreter and NumPy work."""
    import numpy as np

    t = time.perf_counter()
    x = 0
    for i in range(60_000):
        x += (i * i) % 7
    d: dict[int, int] = {}
    for i in range(5_000):
        d[i % 97] = d.get(i % 97, 0) + i
    a = np.arange(100_000, dtype=np.float64)[::-1].copy()
    a.sort()
    return time.perf_counter() - t


@dataclass
class HostSpeed:
    """How slow the host runs, from probes taken between operations.

    The shared host's single-core speed drifts by up to ~40% over
    minutes; the same code then takes proportionally longer, and so does
    the probe.  Each timed interval is divided by the slowdown the
    probes show around it, which reports it at the reference speed, so
    runs made minutes or hours apart compare.
    """

    times: list[float] = field(default_factory=list)
    samples: list[float] = field(default_factory=list)

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.times.append(time.monotonic())
            self.samples.append(probe())

    def slowdown(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Median probe time within :data:`LOCAL_S` of ``[t0, t1]`` (all
        probes when none is that close) over :data:`PROBE_REF_S`."""
        near = [s for t, s in zip(self.times, self.samples)
                if t0 - LOCAL_S <= t <= t1 + LOCAL_S]
        return statistics.median(near or self.samples) / PROBE_REF_S

    def scaled(self, start: float, seconds: float) -> float:
        return seconds / self.slowdown(start, start + seconds)


@dataclass
class Op:
    """One timed operation: ``seconds`` is its wall time, ``ok`` false
    once it failed or its output did not verify."""

    key: str
    seconds: float
    items: int
    cold: bool = True
    ok: bool = True
    start: float = 0.0  # time.monotonic() when it began


@dataclass
class LayerContext:
    summary: dict[str, dict[str, float]]
    window_s: float
    missing: set[str] = field(default_factory=set)
    extras: dict[str, float | None] = field(default_factory=dict)

    def value(self, span: str, key: str) -> float | None:
        if span in self.missing:
            return None
        return self.summary.get(span, {}).get(key, 0.0)

    def pct(self, span: str, key: str) -> float | None:
        v = self.value(span, key)
        return None if v is None else 100.0 * v / self.window_s


def _busy(span: str) -> Callable[[LayerContext], float | None]:
    return lambda c: c.pct(span, "busy")


def _self(span: str) -> Callable[[LayerContext], float | None]:
    return lambda c: c.pct(span, "self")


def _calls(span: str) -> Callable[[LayerContext], float | None]:
    return lambda c: c.value(span, "calls")


def _extra(key: str) -> Callable[[LayerContext], float | None]:
    """A value the runner measured; 0 where the workload has no such
    work, ``None`` where the runner found its source gone."""
    return lambda c: c.extras.get(key, 0.0)


#: (name, unit, how).  Span names match tracing.TARGETS or the spans the
#: benchmark opens itself (codesign.sweep, kernels.functional,
#: sim.run_trace, model.stats_from_model around its own calls).
PER_LAYER: tuple[tuple[str, str, Callable[[LayerContext], float | None]], ...] = (
    ("codesign.sweep.self_pct", "%", _self("codesign.sweep")),
    ("codesign.profile_network.self_pct", "%", _self("codesign.profile_network")),
    ("codesign.profile_eval.busy_pct", "%", _busy("codesign.profile_eval")),
    ("codesign.profile_eval.calls", "count", _calls("codesign.profile_eval")),
    ("codesign.evaluate_column.busy_pct", "%", _busy("codesign.evaluate_column")),
    ("codesign.evaluate_column.calls", "count", _calls("codesign.evaluate_column")),
    ("nets.layer_phase_models.busy_pct", "%", _busy("nets.layer_phase_models")),
    ("nets.layer_phase_models.calls", "count", _calls("nets.layer_phase_models")),
    ("nets.record_inference.self_pct", "%", _self("nets.record_inference")),
    ("model.gemm_model.busy_pct", "%", _busy("model.gemm_model")),
    ("model.im2col_model.busy_pct", "%", _busy("model.im2col_model")),
    ("model.winograd_layer_model.busy_pct", "%", _busy("model.winograd_layer_model")),
    ("model.direct1x1_model.busy_pct", "%", _busy("model.direct1x1_model")),
    ("model.aux_model.busy_pct", "%", _busy("model.aux_model")),
    ("model.stats_from_model.busy_pct", "%", _busy("model.stats_from_model")),
    ("model.stats_from_model.calls", "count", _calls("model.stats_from_model")),
    ("model.condense.busy_pct", "%", _busy("model.condense")),
    ("model.condensed_classes", "count",
     lambda c: c.value("model.condense", "count")),
    ("model.replay.busy_pct", "%", _busy("model.replay")),
    ("model.replay.calls", "count", _calls("model.replay")),
    ("model.l2_miss_err", "%", _extra("model.l2_miss_err")),
    ("model.cycles_err", "%", _extra("model.cycles_err")),
    ("winograd.f6x3_transforms.busy_pct", "%", _busy("winograd.f6x3_transforms")),
    ("winograd.f6x3_transforms.calls", "count", _calls("winograd.f6x3_transforms")),
    ("serve.client.connect_pct", "%", _extra("serve.client.connect_pct")),
    ("serve.client.ttfb_pct", "%", _extra("serve.client.ttfb_pct")),
    ("serve.client.stream_pct", "%", _extra("serve.client.stream_pct")),
    ("serve.query_parse.busy_pct", "%", _busy("serve.query_parse")),
    ("serve.store_lookup.busy_pct", "%", _busy("serve.store_lookup")),
    ("serve.encode_event.busy_pct", "%", _busy("serve.encode_event")),
    ("serve.store.hits", "count", _extra("serve.store.hits")),
    ("serve.store.misses", "count", _extra("serve.store.misses")),
    ("serve.store.coalesced", "count", _extra("serve.store.coalesced")),
    ("serve.store.hit_ratio", "%", _extra("serve.store.hit_ratio")),
    ("serve.points.computed", "count", _extra("serve.points.computed")),
    ("serve.points.coalesced", "count", _extra("serve.points.coalesced")),
    ("serve.cold_points", "count", _extra("serve.cold_points")),
    ("serve.cold_queries", "count", _extra("serve.cold_queries")),
    ("serve.queue_wait_pct", "%", _extra("serve.queue_wait_pct")),
    ("serve.http.non2xx", "count", _extra("serve.http.non2xx")),
    ("kernels.functional.busy_pct", "%", _busy("kernels.functional")),
    ("kernels.filter_transform.busy_pct", "%", _busy("kernels.filter_transform")),
    ("kernels.input_transform.busy_pct", "%", _busy("kernels.input_transform")),
    ("kernels.tuple_multiplication.busy_pct", "%",
     _busy("kernels.tuple_multiplication")),
    ("kernels.output_transform.busy_pct", "%", _busy("kernels.output_transform")),
    ("kernels.im2col.busy_pct", "%", _busy("kernels.im2col")),
    ("kernels.gemm.busy_pct", "%", _busy("kernels.gemm")),
    ("kernels.direct1x1.busy_pct", "%", _busy("kernels.direct1x1")),
    ("rvv.instrs", "count", _extra("rvv.instrs")),
    ("rvv.instr_per_s", "1/s", _extra("rvv.instr_per_s")),
    ("sim.run_trace.busy_pct", "%", _busy("sim.run_trace")),
    ("sim.events_per_s", "1/s", _extra("sim.events_per_s")),
    ("sim.cycles", "count", _extra("sim.cycles")),
    ("sim.l1.misses", "count", _extra("sim.l1.misses")),
    ("sim.l2.misses", "count", _extra("sim.l2.misses")),
    ("sim.dram_bytes", "count", _extra("sim.dram_bytes")),
    ("obs.host_slowdown", "ratio", _extra("obs.host_slowdown")),
    ("obs.trace_overhead", "%", _extra("obs.trace_overhead")),
    ("obs.span_coverage", "%", _extra("obs.span_coverage")),
    ("obs.spans", "count", _extra("obs.spans")),
)


#: Per-layer metrics where more is better (for the rest, less is).
HIGHER_IS_BETTER = frozenset({
    "serve.store.hits", "serve.store.coalesced", "serve.store.hit_ratio",
    "serve.points.coalesced", "rvv.instr_per_s", "sim.events_per_s",
    "obs.span_coverage",
})


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; infinite samples stay infinite."""
    if not values:
        return math.nan
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(ops: list[Op], segments: list[tuple[float, float]],
               setup: list[tuple[float, float]], peak_rss_mb: float,
               speed: HostSpeed) -> dict[str, float]:
    """The end-to-end metrics; every host time is scaled to the
    reference speed by the probes around it."""
    lat = [speed.scaled(op.start, op.seconds) if op.ok else math.inf
           for op in ops]
    cold = [t for t, op in zip(lat, ops) if op.cold]
    done = [op for op in ops if op.ok]
    window = sum(speed.scaled(start, secs) for start, secs in segments)
    return {
        "setup_s": statistics.median(speed.scaled(start, secs)
                                     for start, secs in setup),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": len(done) / window,
        "items_per_s": sum(op.items for op in done) / window,
        "op_p50_ms": 1000.0 * percentile(lat, 50),
        "op_p90_ms": 1000.0 * percentile(lat, 90),
        "cold_op_p50_ms": 1000.0 * percentile(cold, 50),
    }


def per_layer(ctx: LayerContext) -> dict[str, float | None]:
    return {name: how(ctx) for name, _, how in PER_LAYER}


def coverage(spans: list[Any], selfs: dict[int, float]) -> float:
    """Share of the root spans' time attributed to their descendants."""
    roots = [sp for sp in spans if sp.parent is None]
    total = sum(sp.duration for sp in roots)
    root_ids = {sp.id for sp in roots}
    attributed = sum(selfs[sp.id] for sp in spans if sp.id not in root_ids)
    return 100.0 * attributed / total if total else 0.0


def wrapper_calls(spans: list[Any]) -> int:
    return sum(1 for sp in spans if sp.name in WRAPPED_NAMES)


def units() -> dict[str, str]:
    return {name: unit for name, unit, _ in END_TO_END} | {
        name: unit for name, unit, _ in PER_LAYER}
