"""The typed metrics registry: semantics, exposition, and deltas.

The serve path instruments itself through :mod:`repro.obs.metrics`;
these tests pin the contracts the instrumentation and its consumers
(``GET /metrics``, ``repro loadtest``) rely on:

- registration is get-or-create, and a name collision across kinds (or
  across histogram bucket layouts) raises instead of silently aliasing;
- counters are monotonic and finite (negative, NaN and infinite
  increments raise), gauges are not;
- histogram percentiles are *exact* (nearest-rank) until the raw-sample
  reservoir cap, then bucket-interpolated — and ``summary()`` says
  which regime applies;
- the Prometheus text exposition round-trips through the in-repo
  parser bit-for-bit in value terms (cumulative buckets, ``+Inf``,
  ``_total``/``_sum``/``_count`` suffixes);
- cross-process deltas (capture -> pickle -> merge) are lossless for
  counts and sums, exclude gauges, and honestly degrade percentile
  exactness (merged samples count as dropped);
- ``reset()`` zeroes in place so module-level metric handles survive.
"""

import asyncio
import math
import pickle
import re
import threading
from pathlib import Path

import pytest

from repro.errors import ObsError
from repro.obs import MemorySink
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_exposition,
    percentile_from_buckets,
    prometheus_name,
    read_percentiles,
    render_prometheus,
)

pytestmark = pytest.mark.obs


@pytest.fixture()
def reg():
    return MetricsRegistry()


class TestRegistrySemantics:
    def test_get_or_create_returns_the_same_object(self, reg):
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.get("a") is reg.counter("a")
        assert reg.get("nope") is None

    def test_kind_collision_raises(self, reg):
        reg.counter("serve.x")
        with pytest.raises(ObsError, match="counter"):
            reg.gauge("serve.x")
        with pytest.raises(ObsError, match="counter"):
            reg.histogram("serve.x")
        reg.gauge("serve.g")
        with pytest.raises(ObsError, match="gauge"):
            reg.counter("serve.g")

    def test_histogram_bucket_mismatch_raises(self, reg):
        reg.histogram("h", buckets=(1, 2, 4))
        with pytest.raises(ObsError, match="different"):
            reg.histogram("h", buckets=(1, 2, 8))
        # Same bounds (even int-vs-float spelled) are the same metric.
        assert reg.histogram("h", buckets=(1.0, 2.0, 4.0)) is reg.get("h")

    def test_histogram_bucket_validation(self, reg):
        with pytest.raises(ObsError, match="bucket"):
            Histogram("h", "", reg, buckets=())
        with pytest.raises(ObsError, match="increasing"):
            Histogram("h", "", reg, buckets=(1, 1, 2))
        with pytest.raises(ObsError, match="increasing"):
            Histogram("h", "", reg, buckets=(2, 1))
        with pytest.raises(ObsError, match="finite"):
            Histogram("h", "", reg, buckets=(1, math.inf))

    def test_counter_is_monotonic(self, reg):
        c = reg.counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        for bad in (-1, math.nan, math.inf, -math.inf):
            with pytest.raises(ObsError, match=r"'c'.*monotonic"):
                c.inc(bad)
        assert c.value == 3.5

    def test_gauge_moves_both_ways(self, reg):
        g = reg.gauge("g")
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.value == 3.0

    def test_disable_makes_mutations_noops(self, reg):
        c, g, h = reg.counter("c"), reg.gauge("g"), reg.histogram("h")
        reg.disable()
        try:
            c.inc()
            g.set(9)
            h.observe(0.1)
        finally:
            reg.enable()
        assert c.value == 0 and g.value == 0 and h.count == 0
        c.inc()
        assert c.value == 1

    def test_reset_zeroes_in_place_and_handles_survive(self, reg):
        c = reg.counter("c")
        h = reg.histogram("h")
        c.inc(7)
        h.observe(0.5)
        reg.reset()
        assert reg.counter("c") is c, "reset must not forget registrations"
        assert c.value == 0
        assert h.count == 0 and h.sum == 0
        c.inc()
        h.observe(0.25)
        assert c.value == 1 and h.count == 1


class TestHistogramPercentiles:
    def test_exact_nearest_rank_until_cap(self, reg):
        h = Histogram("h", "", reg, buckets=DEFAULT_LATENCY_BUCKETS,
                      sample_cap=1000)
        values = [i / 100 for i in range(1, 101)]  # 0.01 .. 1.00
        for v in values:
            h.observe(v)
        assert h.percentile(0.50) == 0.50
        assert h.percentile(0.95) == 0.95
        assert h.percentile(0.99) == 0.99
        assert h.percentile(1.0) == 1.00
        s = h.summary()
        assert s["exact"] is True
        assert s["count"] == 100
        assert s["p50"] == 0.50

    def test_interpolates_after_the_reservoir_cap(self, reg):
        h = Histogram("h", "", reg, buckets=(0.1, 0.2, 0.4), sample_cap=2)
        for v in (0.05, 0.15, 0.15, 0.35):
            h.observe(v)
        s = h.summary()
        assert s["exact"] is False, "dropped samples must be admitted"
        # Bucket-interpolated now: p50 lands inside the (0.1, 0.2] bucket.
        assert 0.1 <= h.percentile(0.50) <= 0.2
        # Counts and sum stay complete regardless of the reservoir.
        assert h.count == 4
        assert h.sum == pytest.approx(0.70)

    def test_empty_histogram_reads_zero(self, reg):
        h = reg.histogram("h")
        assert h.percentile(0.99) == 0.0
        assert h.summary() == {
            "count": 0, "sum": 0.0, "exact": True,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_percentile_fraction_is_validated(self, reg):
        h = reg.histogram("h")
        for q in (0, -0.5, 1.5):
            with pytest.raises(ObsError, match="fraction"):
                h.percentile(q)

    def test_cumulative_counts_are_monotone_with_inf_total(self, reg):
        h = reg.histogram("h", buckets=(0.1, 0.2, 0.4))
        for v in (0.05, 0.15, 0.9):
            h.observe(v)
        cum = h.cumulative_counts()
        assert cum == sorted(cum)
        assert len(cum) == 4  # three bounds + the implicit +Inf
        assert cum[-1] == 3


class TestPercentileFromBuckets:
    def test_interpolates_within_the_bucket(self):
        # 5 observations <= 0.1, 5 more in (0.1, 0.2].
        bounds = [0.1, 0.2, 0.4, math.inf]
        cum = [5.0, 10.0, 10.0, 10.0]
        assert percentile_from_buckets(bounds, cum, 0.5) == pytest.approx(0.1)
        assert percentile_from_buckets(bounds, cum, 0.75) == pytest.approx(0.15)

    def test_inf_bucket_reports_highest_finite_bound(self):
        bounds = [0.1, 0.2, 0.4]
        cum = [0.0, 0.0, 0.0, 5.0]  # everything beyond the last bound
        assert percentile_from_buckets(bounds, cum, 0.5) == 0.4

    def test_shape_mismatch_raises(self):
        with pytest.raises(ObsError, match="mismatch"):
            percentile_from_buckets([0.1, 0.2], [1.0], 0.5)

    def test_empty_distribution_reads_zero(self):
        assert percentile_from_buckets([0.1], [0.0, 0.0], 0.5) == 0.0


class TestExposition:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("serve.queries", "queries accepted").inc(3)
        reg.gauge("serve.open_queries").set(2)
        h = reg.histogram("serve.query.seconds", buckets=(0.1, 0.5, 2.0))
        for v in (0.05, 0.3, 0.3, 5.0):
            h.observe(v)
        return reg

    def test_prometheus_name_mapping(self):
        assert prometheus_name("serve.query.seconds") == (
            "repro_serve_query_seconds")
        assert prometheus_name("http.responses.2xx") == (
            "repro_http_responses_2xx")

    def test_render_parse_round_trip(self):
        reg = self._populated()
        families = parse_exposition(render_prometheus(reg))
        c = families["repro_serve_queries"]
        assert c.kind == "counter"
        assert c.value("_total") == 3
        g = families["repro_serve_open_queries"]
        assert g.kind == "gauge"
        assert g.value() == 2
        h = families["repro_serve_query_seconds"]
        assert h.kind == "histogram"
        bounds, cum = h.histogram_cumulative()
        assert bounds == [0.1, 0.5, 2.0, math.inf]
        assert cum == [1, 3, 3, 4]
        assert h.value("_count") == 4
        assert h.value("_sum") == pytest.approx(5.65)

    def test_read_percentiles_from_a_scrape(self):
        reg = self._populated()
        families = parse_exposition(render_prometheus(reg))
        p = read_percentiles(families["repro_serve_query_seconds"])
        assert set(p) == {"p50", "p95", "p99"}
        assert 0.1 <= p["p50"] <= 0.5
        assert p["p99"] == 2.0, "+Inf-bucket mass reports the last bound"

    def test_malformed_sample_line_raises(self):
        with pytest.raises(ObsError, match="malformed"):
            parse_exposition("repro_x{unclosed 1\n")
        with pytest.raises(ObsError, match="malformed"):
            parse_exposition("repro_x not-a-number\n")

    def test_family_value_requires_exactly_one_match(self):
        families = parse_exposition(render_prometheus(self._populated()))
        h = families["repro_serve_query_seconds"]
        with pytest.raises(ObsError, match="exactly one"):
            h.value("_bucket")  # four le-labelled samples match
        with pytest.raises(ObsError, match="exactly one"):
            h.value("_nope")

    def test_histogram_without_inf_bucket_raises(self):
        fam = parse_exposition(
            '# TYPE repro_h histogram\n'
            'repro_h_bucket{le="0.1"} 1\n'
            'repro_h_sum 0.05\nrepro_h_count 1\n'
        )["repro_h"]
        with pytest.raises(ObsError, match="Inf"):
            fam.histogram_cumulative()


class TestDeltas:
    def test_capture_delta_merge_is_lossless_for_totals(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        worker.counter("serve.points.computed").inc(2)  # pre-capture noise
        with worker.capture() as cap:
            worker.counter("serve.points.computed").inc(5)
            worker.gauge("serve.workers.busy").set(3)
            h = worker.histogram("serve.point.seconds", buckets=(0.1, 1.0))
            h.observe(0.05)
            h.observe(0.5)
        delta = pickle.loads(pickle.dumps(cap.delta()))

        assert "serve.workers.busy" not in delta, (
            "gauges are levels, not totals; they must not ship"
        )
        parent.merge(delta)
        assert parent.counter("serve.points.computed").value == 5
        merged = parent.histogram("serve.point.seconds", buckets=(0.1, 1.0))
        assert merged.count == 2
        assert merged.sum == pytest.approx(0.55)
        assert merged.cumulative_counts() == [1, 2, 2]

    def test_merged_observations_degrade_exactness_honestly(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        with worker.capture() as cap:
            worker.histogram("h", buckets=(0.1, 1.0)).observe(0.5)
        parent.merge(cap.delta())
        assert parent.histogram("h", buckets=(0.1, 1.0)).summary()[
            "exact"] is False, (
            "raw samples do not travel; merged data cannot claim "
            "exact percentiles"
        )

    def test_merge_rejects_mismatched_buckets_and_kinds(self):
        worker = MetricsRegistry()
        with worker.capture() as cap:
            worker.histogram("h", buckets=(0.1, 1.0)).observe(0.5)
        delta = cap.delta()

        parent = MetricsRegistry()
        parent.histogram("h", buckets=(0.2, 2.0))
        with pytest.raises(ObsError, match="buckets"):
            parent.merge(delta)
        with pytest.raises(ObsError, match="kind"):
            parent.merge({"x": {"kind": "mystery", "value": 1}})

    def test_empty_delta_for_no_mutations(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(4)
        with reg.capture() as cap:
            pass
        assert cap.delta() == {}


class TestThreadSafety:
    def test_concurrent_increments_and_observations_are_exact(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        h = reg.histogram("h", buckets=(0.5,))
        n_threads, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                c.inc()
                h.observe(0.25)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        assert c.value == total
        assert h.count == total
        assert h.cumulative_counts() == [total, total]
        assert h.sum == pytest.approx(0.25 * total)


class TestMetricTypes:
    def test_kinds_are_declared(self):
        assert Counter.kind == "counter"
        assert Gauge.kind == "gauge"
        assert Histogram.kind == "histogram"


def _expand_braces(pattern):
    """``a_{x,y}_b`` -> ``a_x_b``, ``a_y_b`` (every group, recursively)."""
    m = re.search(r"\{([^}]*)\}", pattern)
    if m is None:
        return [pattern]
    return [name for alt in m.group(1).split(",")
            for name in _expand_braces(
                pattern[:m.start()] + alt + pattern[m.end():])]


def _catalogued_series():
    """The series of the EXPERIMENTS.md ``/metrics`` catalogue table."""
    text = (Path(__file__).resolve().parents[1] / "EXPERIMENTS.md").read_text(
        encoding="utf-8")
    table = text.split("**The metrics catalogue.**", 1)[1].split("\n\n", 2)[1]
    rows = re.findall(r"^\| `([^`]+)` \|", table, flags=re.M)
    return {name for row in rows for name in _expand_braces(row)}


class TestCatalogue:
    def test_every_exposed_family_is_catalogued(self):
        """The EXPERIMENTS catalogue names exactly the series ``GET
        /metrics`` exposes once a query was served and a kernel trace
        ran through the cache simulator."""
        from repro.serve import CodesignService, Query, ResultStore
        from repro.sim import Simulator, SystemConfig
        from tests.test_sim_system import stream_trace

        service = CodesignService(ResultStore(max_bytes=1 << 20), workers=1)
        query = Query.from_payload({"network": "vgg16", "max_layers": 1,
                                    "vlens": [512], "l2_mbs": [1],
                                    "mode": "fast"})
        asyncio.run(service.handle_query(query, MemorySink()))
        Simulator(SystemConfig()).run_trace(stream_trace(64, 2))

        exposed = set()
        for line in service.render_metrics().splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                exposed.add(name + "_total" if kind == "counter" else name)
        catalogued = _catalogued_series()
        assert exposed - catalogued == set(), "exposed but not catalogued"
        assert catalogued - exposed == set(), "catalogued but not exposed"
