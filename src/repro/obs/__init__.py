"""Structured observability: spans, counters, events, run manifests.

The measurement substrate under every performance claim in this repo:

- :mod:`repro.obs.trace` — hierarchical :class:`Span` trees recorded by
  an ambient :class:`Tracer` (``with span("simulate_inference"): ...``),
  with per-span wall time and ``SimStats`` counters; spans serialize,
  so worker processes ship their subtrees back to the parent trace.
- :mod:`repro.obs.metrics` — the process-global metrics registry
  (:data:`METRICS`), the one counter store every component bumps (the
  serve path, the result store, the cache simulator, the replay):
  monotonic counters, gauges, and fixed-bucket latency histograms with
  exact-until-capped percentiles, rendered as Prometheus text
  exposition for ``GET /metrics`` and parsed back by ``repro
  loadtest``.  Pool workers ship their capture deltas home and the
  parent merges them, so totals are exact however a sweep ran.
- :mod:`repro.obs.events` — structured events and sinks (JSONL flight
  recorder, in-memory, callback, tee); the sweep executor's progress,
  ETA and degradation warnings all flow through this layer.
- :mod:`repro.obs.manifest` — run manifests (command, config, backend,
  git revision, seed state) written next to every ``--trace``.
- :mod:`repro.obs.render` — text/JSON renderers for traces and
  counter snapshots (``repro profile``).
- :mod:`repro.obs.analytics` — trace loading, structural diff,
  critical path, hot-span ranking (``repro trace diff`` / ``top``).
- :mod:`repro.obs.attribution` — measured roofline classification of
  layer spans and reconciliation against the analytical model
  (``repro profile --roofline``).
- :mod:`repro.obs.baseline` — versioned ``BENCH_<rev>.json``
  performance baselines and the regression comparison
  (``repro bench record`` / ``compare``).
- :mod:`repro.obs.export` — Chrome trace-event and folded-stack
  exporters (``repro trace export``).

Everything here is observation-only: instrumented and uninstrumented
runs produce bit-identical statistics, and ``obs`` imports nothing from
the simulator (the simulator imports ``obs``, never the reverse).
"""

from repro.obs.analytics import (
    HotSpan,
    SpanDiff,
    TracePayload,
    critical_path,
    diff_payload,
    diff_traces,
    load_trace,
    render_critical_path,
    render_diff_text,
    render_top_text,
    top_spans,
)
from repro.obs.attribution import (
    MeasuredRooflinePoint,
    Reconciliation,
    attribute_trace,
    disagreements,
    reconcile,
    render_attribution,
)
from repro.obs.baseline import (
    BaselineStore,
    BenchComparison,
    BenchRecorder,
    Regression,
    baseline_payload,
    bench_key,
    compare_payloads,
    render_comparison,
)
from repro.obs.export import (
    EXPORT_FORMATS,
    chrome_trace,
    export_trace,
    folded_stacks,
)
from repro.obs.events import (
    LEVEL_INFO,
    LEVEL_WARNING,
    CallbackSink,
    EventSink,
    JsonlSink,
    MemorySink,
    ScopedSink,
    TeeSink,
    event,
    read_jsonl,
    warnings_in,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricSample,
    MetricsCapture,
    MetricsRegistry,
    parse_exposition,
    percentile_from_buckets,
    prometheus_name,
    read_percentiles,
    render_prometheus,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RUN_MANIFEST_NAME,
    git_rev,
    query_manifest,
    run_manifest,
    seed_state,
    write_manifest,
)
from repro.obs.render import (
    render_trace_json,
    render_trace_text,
    span_cycles,
    trace_payload,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    counters_from_stats,
    current_tracer,
    span,
    tracing,
)

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "span",
    "tracing",
    "current_tracer",
    "counters_from_stats",
    "METRICS",
    "MetricsRegistry",
    "MetricsCapture",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricSample",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "prometheus_name",
    "render_prometheus",
    "parse_exposition",
    "percentile_from_buckets",
    "read_percentiles",
    "EventSink",
    "MemorySink",
    "JsonlSink",
    "CallbackSink",
    "ScopedSink",
    "TeeSink",
    "event",
    "read_jsonl",
    "warnings_in",
    "LEVEL_INFO",
    "LEVEL_WARNING",
    "run_manifest",
    "query_manifest",
    "write_manifest",
    "seed_state",
    "git_rev",
    "MANIFEST_SCHEMA",
    "RUN_MANIFEST_NAME",
    "render_trace_text",
    "render_trace_json",
    "span_cycles",
    "trace_payload",
    "TracePayload",
    "SpanDiff",
    "HotSpan",
    "load_trace",
    "diff_traces",
    "diff_payload",
    "render_diff_text",
    "critical_path",
    "render_critical_path",
    "top_spans",
    "render_top_text",
    "MeasuredRooflinePoint",
    "Reconciliation",
    "attribute_trace",
    "reconcile",
    "disagreements",
    "render_attribution",
    "BaselineStore",
    "BenchRecorder",
    "BenchComparison",
    "Regression",
    "bench_key",
    "baseline_payload",
    "compare_payloads",
    "render_comparison",
    "EXPORT_FORMATS",
    "chrome_trace",
    "folded_stacks",
    "export_trace",
]
