"""Typed metrics: counters, gauges, and latency histograms.

This module is the process's one counter store.  Every component that
counts — the serve path, the result store, the named caches of the
trace simulator, the replay's certificate fallbacks — bumps a typed
metric on :data:`METRICS`:

- :class:`Counter` — monotonic totals (queries served, store hits,
  cache misses).  An increment that is negative, NaN or infinite is a
  bug in the instrumentation, so it raises.
- :class:`Gauge` — instantaneous levels (open queries, busy workers,
  resident store bytes).  Gauges go up and down and are excluded from
  cross-process deltas, which only make sense for monotone series.
- :class:`Histogram` — fixed-bucket latency/size distributions in the
  Prometheus cumulative-``le`` style, plus a bounded raw-sample
  reservoir so p50/p95/p99 readouts are *exact* until the reservoir
  cap (``REPRO_METRICS_SAMPLE_CAP``) is hit, after which they degrade
  to bucket interpolation and say so (``"exact": False``).

All three are registered in a :class:`MetricsRegistry` (process-global
instance: :data:`METRICS`).  Hot paths bind their metric handles once
(at import or construction) and bump them unconditionally;
:meth:`MetricsRegistry.disable` turns every mutation into a no-op so
the overhead benches can measure instrumented-vs-not on the same code.

The registry renders to Prometheus text exposition format 0.0.4
(:func:`render_prometheus`, served by ``GET /metrics``) and this module
also carries the matching :func:`parse_exposition` /
:func:`percentile_from_buckets` consumers so ``repro loadtest`` and the
smoke tests read the service the same way a real scrape pipeline would.

The registry is process-safe by *delta shipping*, not shared memory:
a sweep's pool worker captures (:meth:`MetricsRegistry.capture`), the
plain-dict delta pickles home with the task's result, and the parent
folds it in (:meth:`MetricsRegistry.merge`).  Threads share the
registry and need no shipping.  Raw histogram samples do not travel —
merged observations count toward the ``dropped`` tally so percentile
exactness stays honest.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.envknobs import env_int
from repro.errors import ObsError

#: Latency bucket upper bounds in seconds: 50us .. 30s, roughly
#: logarithmic.  Fine enough at the bottom to resolve store hits
#: (~100us) and at the top to resolve exact-mode sweep columns.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Bucket bounds for small integer sizes (batch sizes, queue depths).
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)

#: Default cap on raw samples retained per histogram for exact
#: percentiles (override with ``REPRO_METRICS_SAMPLE_CAP``).
DEFAULT_SAMPLE_CAP = 65536


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.help = help
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, value: float = 1) -> None:
        """Add ``value`` (finite and >= 0) to the total."""
        if not 0 <= value < math.inf:  # also false for NaN
            raise ObsError(
                f"counter {self.name!r} incremented by {value}; counters "
                "are monotonic and finite — use a gauge for levels"
            )
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """An instantaneous level that can move in both directions."""

    kind = "gauge"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.help = help
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, value: float = 1) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += value

    def dec(self, value: float = 1) -> None:
        self.inc(-value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """A fixed-bucket distribution with exact-until-capped percentiles.

    Buckets are cumulative upper bounds in the Prometheus ``le`` style;
    an implicit ``+Inf`` bucket catches everything above the last
    bound.  Alongside the bucket counts, up to ``sample_cap`` raw
    observations are retained so :meth:`percentile` is *exact*
    (nearest-rank) for bounded runs; once observations outnumber the
    cap, later samples are dropped from the reservoir (counts and sum
    stay complete) and percentiles fall back to linear interpolation
    within the bucket — :meth:`summary` reports which regime applies.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        registry: "MetricsRegistry",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        sample_cap: int | None = None,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObsError(f"histogram {name!r} needs >= 1 bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ObsError(
                f"histogram {name!r} bucket bounds must be strictly "
                f"increasing, got {bounds}"
            )
        if not all(math.isfinite(b) for b in bounds):
            raise ObsError(
                f"histogram {name!r} bucket bounds must be finite "
                "(+Inf is implicit)"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self._registry = registry
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0
        # Packed doubles: a full reservoir is 0.5 MB, not 2 MB of floats.
        self._samples = array("d")
        self._dropped = 0
        if sample_cap is None:
            sample_cap = env_int(
                "REPRO_METRICS_SAMPLE_CAP", DEFAULT_SAMPLE_CAP, minimum=0
            )
        self._sample_cap = sample_cap

    def observe(self, value: float) -> None:
        """Record one observation."""
        if not self._registry.enabled:
            return
        v = float(value)
        idx = bisect.bisect_left(self.buckets, v)
        with self._lock:
            self._counts[idx] += 1
            self._sum += v
            self._count += 1
            if len(self._samples) < self._sample_cap:
                self._samples.append(v)
            else:
                self._dropped += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative_counts(self) -> list[int]:
        """Cumulative bucket counts, one per bound plus ``+Inf``."""
        with self._lock:
            out: list[int] = []
            acc = 0
            for c in self._counts:
                acc += c
                out.append(acc)
            return out

    def percentile(self, q: float) -> float:
        """The ``q`` quantile (``0 < q <= 1``) of the distribution.

        Exact (nearest-rank over retained samples) while nothing has
        been dropped; bucket-interpolated after that.  Returns 0.0 for
        an empty histogram.
        """
        if not 0 < q <= 1:
            raise ObsError(f"percentile fraction must be in (0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            if self._dropped == 0:
                ordered = sorted(self._samples)
                rank = max(0, math.ceil(q * len(ordered)) - 1)
                return ordered[rank]
            cum: list[float] = []
            acc = 0
            for c in self._counts:
                acc += c
                cum.append(float(acc))
        return percentile_from_buckets(self.buckets, cum, q)

    def summary(self) -> dict[str, float | int | bool]:
        """Count, sum, and p50/p95/p99 with an exactness flag."""
        with self._lock:
            count = self._count
            total = self._sum
            exact = self._dropped == 0
        out: dict[str, float | int | bool] = {
            "count": count,
            "sum": round(total, 9),
            "exact": exact,
        }
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            out[label] = round(self.percentile(q), 9) if count else 0.0
        return out

    def _state(self) -> dict[str, object]:
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
                "dropped": self._dropped,
            }

    def _merge_state(self, state: Mapping[str, object]) -> None:
        buckets = [float(b) for b in _as_float_list(state.get("buckets"))]
        if tuple(buckets) != self.buckets:
            raise ObsError(
                f"histogram {self.name!r} merge with mismatched buckets: "
                f"{tuple(buckets)} != {self.buckets}"
            )
        counts = [int(c) for c in _as_float_list(state.get("counts"))]
        if len(counts) != len(self._counts):
            raise ObsError(
                f"histogram {self.name!r} merge with {len(counts)} bucket "
                f"counts, expected {len(self._counts)}"
            )
        delta_sum = float(_as_float(state.get("sum")))
        delta_count = int(_as_float(state.get("count")))
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._sum += delta_sum
            self._count += delta_count
            # Raw samples do not travel with a delta: the merged
            # observations are unrecoverable for exact percentiles.
            self._dropped += delta_count
        _ = state.get("dropped")

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self._counts)
            self._sum = 0.0
            self._count = 0
            self._samples = array("d")
            self._dropped = 0


def _as_float(value: object) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    raise ObsError(f"expected a number in metrics delta, got {value!r}")


def _as_float_list(value: object) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ObsError(f"expected a list in metrics delta, got {value!r}")
    return [_as_float(v) for v in value]


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """A typed, thread-safe registry of named metrics.

    Metric constructors are get-or-create: asking twice for the same
    name returns the same object, asking for the same name with a
    different kind (or different histogram buckets) raises
    :class:`ObsError` — a name collision is an instrumentation bug, not
    something to paper over.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}
        #: When False every mutation is a no-op.  Plain attribute read
        #: on the hot path; flipped only by tests and overhead benches.
        self.enabled = True

    def counter(self, name: str, help: str = "") -> Counter:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Counter):
                    raise ObsError(
                        f"metric {name!r} is a {existing.kind}, not a counter"
                    )
                return existing
            metric = Counter(name, help, self)
            self._metrics[name] = metric
            return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Gauge):
                    raise ObsError(
                        f"metric {name!r} is a {existing.kind}, not a gauge"
                    )
                return existing
            metric = Gauge(name, help, self)
            self._metrics[name] = metric
            return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ObsError(
                        f"metric {name!r} is a {existing.kind}, not a histogram"
                    )
                if existing.buckets != tuple(float(b) for b in buckets):
                    raise ObsError(
                        f"histogram {name!r} re-registered with different "
                        f"buckets ({tuple(buckets)} != {existing.buckets})"
                    )
                return existing
            metric = Histogram(name, help, self, buckets=buckets)
            self._metrics[name] = metric
            return metric

    def get(self, name: str) -> Metric | None:
        """The registered metric named ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> list[Metric]:
        """All registered metrics, sorted by name."""
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def disable(self) -> None:
        """Turn every metric mutation into a no-op (overhead benches)."""
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    def reset(self) -> None:
        """Zero every metric *in place*.

        Module-level metric handles stay valid across a reset — the
        registry never forgets a registration, it only clears values.
        """
        for metric in self.metrics():
            metric._reset()

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Point-in-time copy of every metric's state, keyed by name."""
        out: dict[str, dict[str, object]] = {}
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                out[metric.name] = {"kind": metric.kind, **metric._state()}
            else:
                out[metric.name] = {"kind": metric.kind, "value": metric.value}
        return out

    def capture(self) -> "MetricsCapture":
        """Context manager measuring mutations made inside it.

        The worker-side half of cross-process metrics::

            with METRICS.capture() as cap:
                ...                      # work that bumps metrics
            return result, cap.delta()   # picklable dict, merged by
                                         # the parent

        Gauges are levels, not totals, so they are excluded.
        """
        return MetricsCapture(self)

    def merge(self, delta: Mapping[str, Mapping[str, object]]) -> None:
        """Fold a :class:`MetricsCapture` delta into this registry."""
        for name, state in delta.items():
            kind = state.get("kind")
            if kind == "counter":
                self.counter(name).inc(_as_float(state.get("value")))
            elif kind == "histogram":
                buckets = _as_float_list(state.get("buckets"))
                self.histogram(name, buckets=buckets)._merge_state(state)
            elif kind == "gauge":
                continue  # levels do not sum across processes
            else:
                raise ObsError(f"metrics delta for {name!r} has kind {kind!r}")

    def summary(self) -> dict[str, object]:
        """A JSON-friendly digest: values plus histogram percentiles."""
        out: dict[str, object] = {}
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                out[metric.name] = metric.summary()
            else:
                out[metric.name] = metric.value
        return out


class MetricsCapture:
    """Delta of a registry between ``__enter__`` and read time."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._baseline: dict[str, dict[str, object]] = {}

    def __enter__(self) -> "MetricsCapture":
        self._baseline = self._registry.snapshot()
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def delta(self) -> dict[str, dict[str, object]]:
        """Monotone increments since ``__enter__`` (picklable)."""
        now = self._registry.snapshot()
        base = self._baseline
        out: dict[str, dict[str, object]] = {}
        for name, state in now.items():
            kind = state.get("kind")
            prior = base.get(name)
            if kind == "counter":
                before = _as_float(prior.get("value")) if prior else 0.0
                diff = _as_float(state.get("value")) - before
                if diff:
                    out[name] = {"kind": "counter", "value": diff}
            elif kind == "histogram":
                counts = [int(c) for c in _as_float_list(state.get("counts"))]
                before_counts = (
                    [int(c) for c in _as_float_list(prior.get("counts"))]
                    if prior
                    else [0] * len(counts)
                )
                dcounts = [a - b for a, b in zip(counts, before_counts)]
                if any(dcounts):
                    out[name] = {
                        "kind": "histogram",
                        "buckets": state.get("buckets"),
                        "counts": dcounts,
                        "sum": _as_float(state.get("sum"))
                        - (_as_float(prior.get("sum")) if prior else 0.0),
                        "count": sum(dcounts),
                        "dropped": 0,
                    }
        return out


#: The process-global registry every instrumented component bumps.
METRICS = MetricsRegistry()


# ---------------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4): render and parse.
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>[^"]*)"')


def prometheus_name(name: str) -> str:
    """Map a dotted metric name onto the Prometheus grammar."""
    return "repro_" + _NAME_RE.sub("_", name)


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """Render a registry in Prometheus text exposition format 0.0.4."""
    reg = METRICS if registry is None else registry
    lines: list[str] = []
    for metric in reg.metrics():
        base = prometheus_name(metric.name)
        if metric.help:
            lines.append(f"# HELP {base} {metric.help}")
        lines.append(f"# TYPE {base} {metric.kind}")
        if isinstance(metric, Counter):
            lines.append(f"{base}_total {_fmt(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"{base} {_fmt(metric.value)}")
        else:
            cum = metric.cumulative_counts()
            bounds = [*metric.buckets, math.inf]
            for bound, count in zip(bounds, cum):
                lines.append(f'{base}_bucket{{le="{_fmt(bound)}"}} {count}')
            lines.append(f"{base}_sum {_fmt(metric.sum)}")
            lines.append(f"{base}_count {cum[-1]}")
    return "\n".join(lines) + "\n"


@dataclass
class MetricSample:
    """One sample line of a scraped exposition."""

    name: str
    labels: dict[str, str]
    value: float


@dataclass
class MetricFamily:
    """All samples sharing one base metric name in a scrape."""

    name: str
    kind: str = "untyped"
    samples: list[MetricSample] = field(default_factory=list)

    def value(self, suffix: str = "", **labels: str) -> float:
        """The single sample value matching ``name+suffix`` and labels.

        Raises :class:`ObsError` when no sample (or more than one)
        matches — a scrape consumer guessing at missing series is how
        dashboards silently flatline.
        """
        want = self.name + suffix
        hits = [
            s
            for s in self.samples
            if s.name == want
            and all(s.labels.get(k) == v for k, v in labels.items())
        ]
        if len(hits) != 1:
            raise ObsError(
                f"expected exactly one sample for {want!r} {labels!r}, "
                f"found {len(hits)}"
            )
        return hits[0].value

    def histogram_cumulative(self) -> tuple[list[float], list[float]]:
        """``(upper_bounds, cumulative_counts)`` incl. the +Inf bucket."""
        pairs: list[tuple[float, float]] = []
        for s in self.samples:
            if not s.name.endswith("_bucket") or "le" not in s.labels:
                continue
            le = s.labels["le"]
            bound = math.inf if le in ("+Inf", "inf") else float(le)
            pairs.append((bound, s.value))
        pairs.sort(key=lambda p: p[0])
        if not pairs or pairs[-1][0] != math.inf:
            raise ObsError(
                f"scraped histogram {self.name!r} has no +Inf bucket"
            )
        return [p[0] for p in pairs], [p[1] for p in pairs]


def parse_exposition(text: str) -> dict[str, MetricFamily]:
    """Parse Prometheus text exposition into families keyed by name.

    Handles the subset of format 0.0.4 that :func:`render_prometheus`
    emits (plus ordinary labelled samples).  Malformed sample lines
    raise :class:`ObsError` — a scrape that half-parses is worse than
    one that fails.
    """
    families: dict[str, MetricFamily] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                fam = families.setdefault(parts[2], MetricFamily(parts[2]))
                fam.kind = parts[3].strip()
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ObsError(f"malformed exposition sample line: {line!r}")
        name = m.group("name")
        labels: dict[str, str] = {}
        if m.group("labels"):
            for lm in _LABEL_RE.finditer(m.group("labels")):
                labels[lm.group("key")] = lm.group("val")
        try:
            value = float(m.group("value").replace("+Inf", "inf"))
        except ValueError as exc:
            raise ObsError(
                f"malformed exposition value in line: {line!r}"
            ) from exc
        base = name
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                break
        fam = families.setdefault(base, MetricFamily(base))
        fam.samples.append(MetricSample(name, labels, value))
    return families


def percentile_from_buckets(
    upper_bounds: Sequence[float],
    cumulative_counts: Sequence[float],
    q: float,
) -> float:
    """Prometheus-style ``histogram_quantile`` over cumulative buckets.

    ``upper_bounds`` are the finite bucket bounds (the +Inf bucket may
    be included as a trailing ``inf`` or implied by an extra trailing
    count).  Linear interpolation within the chosen bucket; values in
    the +Inf bucket report the highest finite bound, which is the
    honest answer a fixed-bucket histogram can give.
    """
    if not 0 < q <= 1:
        raise ObsError(f"percentile fraction must be in (0, 1], got {q}")
    bounds = [float(b) for b in upper_bounds]
    cum = [float(c) for c in cumulative_counts]
    if bounds and bounds[-1] == math.inf:
        bounds = bounds[:-1]
    if len(cum) not in (len(bounds), len(bounds) + 1):
        raise ObsError(
            f"bucket shape mismatch: {len(bounds)} bounds vs "
            f"{len(cum)} cumulative counts"
        )
    total = cum[-1] if cum else 0.0
    if total <= 0:
        return 0.0
    rank = q * total
    for i, upper in enumerate(bounds):
        if cum[i] >= rank:
            prev_cum = cum[i - 1] if i > 0 else 0.0
            in_bucket = cum[i] - prev_cum
            lower = bounds[i - 1] if i > 0 else 0.0
            if in_bucket <= 0:
                return upper
            frac = (rank - prev_cum) / in_bucket
            return lower + (upper - lower) * frac
    return bounds[-1] if bounds else 0.0


def read_percentiles(
    family: MetricFamily,
    fractions: Iterable[float] = (0.50, 0.95, 0.99),
) -> dict[str, float]:
    """p-labelled percentiles from a scraped histogram family."""
    bounds, cum = family.histogram_cumulative()
    return {
        f"p{int(q * 100)}": percentile_from_buckets(bounds, cum, q)
        for q in fractions
    }
