"""End-to-end tests of the async serving loop.

The acceptance contract: an in-process service answering the same VGG16
sub-grid to three concurrent clients computes every point exactly once
(obs counters prove it), returns results bit-exact with a direct
``codesign_sweep``, and answers a repeat query entirely from the store
without touching the executor.
"""

import asyncio
import http.client
import json
import threading
from dataclasses import replace

import pytest

from repro.codesign import SweepResult, codesign_sweep
from repro.errors import ConfigError
from repro.model.layer_model import NetworkResult
from repro.nets import vgg16_layers
from repro.obs import METRICS, MemorySink, parse_exposition
from repro.obs.analytics import load_trace
from repro.serve import (
    CodesignService,
    Query,
    ResultStore,
    ServeServer,
    query_identity,
    stream_query,
)
from repro.serve import point_key
from repro.serve import service as service_mod
from repro.serve.service import NdjsonSink
from tests.metrics_delta import counter_delta

pytestmark = pytest.mark.serve

PAYLOAD = {"network": "vgg16", "max_layers": 2,
           "vlens": [512, 1024], "l2_mbs": [1, 16], "mode": "exact"}


def _run(coro):
    return asyncio.run(coro)


async def _drive_threads(threads):
    """Start blocking-client threads and await them from the loop."""
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads):
        await asyncio.sleep(0.01)
    for t in threads:
        t.join()


@pytest.fixture(scope="module")
def direct_sweep():
    """The bit-exactness reference: a direct sweep of the same grid."""
    return codesign_sweep(
        "vgg16", vgg16_layers()[:2], vlens=(512, 1024), l2_mbs=(1, 16),
        mode="exact")


class TestEndToEnd:
    def test_three_concurrent_clients_compute_once_bit_exact(
        self, direct_sweep
    ):
        service = CodesignService(ResultStore(max_bytes=1 << 22),
                                  workers=2)
        server = ServeServer(service)
        outcomes = {}

        async def main():
            await server.start()

            def client(tag):
                events = list(stream_query(
                    "127.0.0.1", server.port, PAYLOAD, timeout=300))
                outcomes[tag] = events

            with METRICS.capture() as cap:
                await _drive_threads(
                    [threading.Thread(target=client, args=(i,))
                     for i in range(3)])
            outcomes["computed"] = counter_delta(cap).get(
                "serve.points.computed", 0)

            # Repeat query: answered entirely from the store — prove it
            # by making any executor call blow up.
            real = service_mod.evaluate_column

            def forbidden(*a, **k):
                raise AssertionError("repeat query must not compute")

            service_mod.evaluate_column = forbidden
            try:
                def repeat():
                    outcomes["repeat"] = list(stream_query(
                        "127.0.0.1", server.port, PAYLOAD, timeout=300))
                await _drive_threads([threading.Thread(target=repeat)])
            finally:
                service_mod.evaluate_column = real
            await server.stop()

        _run(main())

        # Exactly-once: 4 grid points, 3 clients, 4 computations.
        assert outcomes["computed"] == 4

        sweeps = []
        for tag in range(3):
            events = outcomes[tag]
            kinds = [e["event"] for e in events]
            assert kinds[0] == "query_start"
            assert kinds[1] == "query_manifest"
            assert kinds[-1] == "query_result"
            assert kinds[-2] == "query_end"
            points = [e for e in events if e["event"] == "point"]
            assert len(points) == 4
            # Every event carries this client's query_id.
            qids = {e["query_id"] for e in events}
            assert len(qids) == 1
            sweeps.append(SweepResult.from_dict(events[-1]["sweep"]))
        # One query_id per client.
        assert len({next(iter({e["query_id"] for e in outcomes[t]}))
                    for t in range(3)}) == 3

        # Bit-exact: every client got exactly the direct sweep.
        for sweep in sweeps:
            assert sweep == direct_sweep
            assert sweep.runtime_grid() == direct_sweep.runtime_grid()

        # Repeat query: all four points served from the store, and the
        # executor (patched to explode) was provably never entered.
        repeat_points = [e for e in outcomes["repeat"]
                         if e["event"] == "point"]
        assert [e["source"] for e in repeat_points] == ["store"] * 4
        repeat_sweep = SweepResult.from_dict(
            outcomes["repeat"][-1]["sweep"])
        assert repeat_sweep == direct_sweep

    def test_cross_query_coalescing_counts(self):
        """Three simultaneous identical cold queries: one computes,
        the others coalesce or hit the store, never recompute."""
        store = ResultStore(max_bytes=1 << 22)
        service = CodesignService(store, workers=1)
        payload = dict(PAYLOAD, mode="fast", vlens=[512], l2_mbs=[1, 16])
        query = Query.from_payload(payload)
        sinks = [MemorySink() for _ in range(3)]

        async def main():
            return await asyncio.gather(*(
                service.handle_query(query, sink) for sink in sinks))

        with METRICS.capture() as cap:
            results = _run(main())
        computed = counter_delta(cap).get("serve.points.computed", 0)
        assert computed == 2
        assert results[0] == results[1] == results[2]
        sources = [e["source"] for sink in sinks for e in sink.events
                   if e["event"] == "point"]
        assert sources.count("computed") == 2
        assert sorted(set(sources)) != ["computed"], (
            "the other clients must coalesce or hit the store"
        )

    def test_query_manifest_pins_identity(self):
        service = CodesignService(ResultStore(max_bytes=1 << 22))
        payload = dict(PAYLOAD, mode="fast", vlens=[512], l2_mbs=[1])
        query = Query.from_payload(payload)
        sink = MemorySink()
        _run(service.handle_query(query, sink, query_id="qtest"))
        manifest_ev, = (e for e in sink.events
                        if e["event"] == "query_manifest")
        manifest = manifest_ev["manifest"]
        assert manifest["command"] == "serve-query"
        assert manifest["query_id"] == "qtest"
        assert manifest["identity"] == query_identity(query)
        assert manifest["backend"] == "fast"


#: A two-layer Darknet cfg, served under more than one network name.
CFG_TEXT = """
[net]
height=8
width=8
channels=3
[convolutional]
filters=4
size=3
stride=1
pad=1
[convolutional]
filters=4
size=1
stride=1
pad=1
"""


def _cfg_query(name):
    return Query.from_payload({"cfg": CFG_TEXT, "name": name, "vlens": [512],
                               "l2_mbs": [1, 16], "mode": "fast"})


def _direct(query):
    return codesign_sweep(query.network, list(query.layers),
                          vlens=query.vlens, l2_mbs=query.l2_mbs,
                          mode=query.mode).to_dict()


class TestLabels:
    """Store keys leave labels out, so one stored point answers every
    network with the same layers; each answer still carries its own
    query's labels, exactly as a direct sweep of that network would."""

    def test_store_hit_carries_the_querys_names(self):
        service = CodesignService(ResultStore(max_bytes=1 << 22), workers=1)
        first, second = _cfg_query("netA"), _cfg_query("netB")
        renamed = replace(second, network="netC", layers=tuple(
            replace(layer, name=f"c_{layer.name}") for layer in second.layers))
        for query in (first, second, renamed):
            sink = MemorySink()
            sweep = _run(service.handle_query(query, sink))
            assert sweep.to_dict() == _direct(query), query.network
            assert sink.events[-1]["sweep"] == _direct(query)
        sources = [e["source"] for e in sink.events if e["event"] == "point"]
        assert sources == ["store", "store"]

    def test_coalesced_point_carries_the_querys_names(self):
        service = CodesignService(ResultStore(max_bytes=1 << 22), workers=1)
        first, second = _cfg_query("netA"), _cfg_query("netB")
        sinks = [MemorySink(), MemorySink()]

        async def main():
            return await asyncio.gather(
                service.handle_query(first, sinks[0]),
                service.handle_query(second, sinks[1]))

        sweeps = _run(main())
        assert [e["source"] for e in sinks[1].events
                if e["event"] == "point"] == ["coalesced", "coalesced"]
        for query, sweep in zip((first, second), sweeps):
            assert sweep.to_dict() == _direct(query), query.network


#: A small darknet network with every layer kind the models know.
MIXED_CFG = """
[net]
height=16
width=16
channels=3
[convolutional]
filters=8
size=3
stride=1
pad=1
[convolutional]
filters=16
size=3
stride=2
pad=1
[convolutional]
filters=8
size=1
stride=1
pad=1
[convolutional]
filters=16
size=3
stride=1
pad=1
[shortcut]
from=-3
[maxpool]
size=2
stride=2
[convolutional]
filters=24
size=1
stride=1
pad=1
"""


def _old_sweep_dict(store, query):
    """The answer as the decode/relabel/re-encode path builds it: each
    stored point through ``NetworkResult.from_dict``, renamed to the
    query's labels, and the grid through ``SweepResult.to_dict``.  Kept
    only as the oracle of the spliced path."""
    results = {}
    for vlen, l2_mb in query.points:
        payload = store.get(point_key(query, vlen, l2_mb)).payload()
        result = NetworkResult.from_dict(payload["result"])
        result.total.label = f"{query.network} total"
        for layer, stats in zip(query.layers, result.per_layer):
            stats.label = layer.name + stats.label[stats.label.rindex("["):]
        results[(vlen, l2_mb)] = replace(result, name=query.network)
    return SweepResult(name=query.network, vlens=query.vlens,
                       l2_mbs=query.l2_mbs, results=results,
                       backend=query.mode).to_dict()


class TestSplicedAnswers:
    def test_hot_answers_equal_the_decode_and_reencode_path(self):
        """Over a pool-like mix (named and cfg networks, both backends,
        a config override, one network under several names), every hot
        answer's wire line is byte for byte ``json.dumps`` of the old
        path's sweep, and in-process sinks get that same dict."""
        cfg = {"cfg": MIXED_CFG, "vlens": [512, 2048], "l2_mbs": [1, 4, 256]}
        payloads = [
            {"network": "vgg16", "max_layers": 3, "vlens": [512, 1024],
             "l2_mbs": [1, 16], "mode": "exact"},
            {"network": "vgg16", "max_layers": 3, "vlens": [1024],
             "l2_mbs": [16, 64], "mode": "fast"},
            {"network": "yolov3", "max_layers": 5, "vlens": [2048],
             "l2_mbs": [2, 8], "mode": "exact"},
            {**cfg, "name": "cfgA", "mode": "fast"},
            {**cfg, "name": "cfgA", "mode": "exact", "hybrid": False},
            {**cfg, "name": 'n\u00e9t "B"', "mode": "fast",
             "vlens": [2048], "l2_mbs": [4]},
            {**cfg, "name": "cfgC", "mode": "fast",
             "config": {"dram_gbs": 26, "l2_assoc": 8}},
        ]
        queries = [Query.from_payload(p) for p in payloads]
        cfg_b = queries[5]
        queries.append(replace(cfg_b, network="renamed", layers=tuple(
            replace(layer, name=f"r[{i}]\u00f6") for i, layer in enumerate(
                cfg_b.layers))))
        service = CodesignService(ResultStore(max_bytes=1 << 24), workers=1)

        async def warm():
            for query in queries:
                await service.handle_query(query, MemorySink())

        _run(warm())
        for i, query in enumerate(queries):
            lines = []
            memory = MemorySink()
            with METRICS.capture() as cap:
                returned = _run(service.handle_query(
                    query, NdjsonSink(lines.append), query_id=f"q{i}"))
                _run(service.handle_query(query, memory, query_id=f"q{i}"))
            assert "serve.points.computed" not in counter_delta(cap)
            oracle = _old_sweep_dict(service.store, query)
            assert lines[-1] == (json.dumps({
                "event": "query_result", "level": "info", "sweep": oracle,
                "query_id": f"q{i}", "seq": len(lines) - 1,
            }) + "\n").encode("utf-8"), query.network
            assert memory.events[-1]["sweep"] == oracle
            assert returned.to_dict() == oracle
            assert returned.at(*query.points[0]) == SweepResult.from_dict(
                oracle).at(*query.points[0])


class TestHttpSurface:
    def _request(self, port, method, target, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        headers = {"Content-Length": str(len(body))} if body else {}
        conn.request(method, target, body=body, headers=headers)
        resp = conn.getresponse()
        out = (resp.status, resp.read().decode("utf-8"))
        conn.close()
        return out

    def test_routes_and_errors(self):
        service = CodesignService(ResultStore(max_bytes=1 << 20))
        server = ServeServer(service)
        results = {}

        async def main():
            await server.start()

            def client():
                results["health"] = self._request(
                    server.port, "GET", "/v1/healthz")
                results["stats"] = self._request(
                    server.port, "GET", "/v1/stats")
                results["missing"] = self._request(
                    server.port, "GET", "/nope")
                results["bad_json"] = self._request(
                    server.port, "POST", "/v1/query", b"{nope")
                results["bad_query"] = self._request(
                    server.port, "POST", "/v1/query",
                    json.dumps({"network": "alexnet", "vlens": [512],
                                "l2_mbs": [1]}).encode())
                results["bad_config"] = self._request(
                    server.port, "POST", "/v1/query",
                    json.dumps({"network": "vgg16", "vlens": [512],
                                "l2_mbs": [1],
                                "config": {"l1_kb": "64"}}).encode())

            await _drive_threads([threading.Thread(target=client)])
            await server.stop()

        _run(main())
        assert results["health"][0] == 200
        assert json.loads(results["health"][1])["ok"] is True
        assert results["stats"][0] == 200
        stats = json.loads(results["stats"][1])
        assert stats["workers"] == service.workers
        assert "store" in stats
        assert results["missing"][0] == 404
        # Malformed queries: a one-line JSON error, never a traceback.
        for tag in ("bad_json", "bad_query", "bad_config"):
            status, body = results[tag]
            assert status == 400
            assert "error" in json.loads(body)
            assert "Traceback" not in body
        assert "alexnet" in json.loads(results["bad_query"][1])["error"]
        assert "l1_kb" in json.loads(results["bad_config"][1])["error"]


class TestTelemetry:
    """The observability surface: /metrics, enriched /stats, access
    log, per-query trace trees.  All observation-only — the query
    answers around them are pinned bit-exact by TestEndToEnd."""

    def test_metrics_endpoint_smoke(self):
        """Tier-1 smoke: scrape parses and the core families are live."""
        service = CodesignService(ResultStore(max_bytes=1 << 22), workers=2)
        server = ServeServer(service)
        out = {}
        payload = dict(PAYLOAD, mode="fast", vlens=[512], l2_mbs=[1])

        async def main():
            await server.start()

            def client():
                list(stream_query("127.0.0.1", server.port, payload,
                                  timeout=300))
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=30)
                conn.request("GET", "/metrics")
                resp = conn.getresponse()
                out["content_type"] = resp.getheader("Content-Type")
                out["body"] = resp.read().decode("utf-8")
                conn.close()

            await _drive_threads([threading.Thread(target=client)])
            await server.stop()

        _run(main())
        assert out["content_type"] == (
            "text/plain; version=0.0.4; charset=utf-8")
        families = parse_exposition(out["body"])
        for name, kind in (
            ("repro_serve_queries", "counter"),
            ("repro_serve_points_computed", "counter"),
            ("repro_store_hits", "counter"),
            ("repro_store_misses", "counter"),
            ("repro_serve_query_seconds", "histogram"),
            ("repro_serve_point_seconds", "histogram"),
            ("repro_serve_queue_seconds", "histogram"),
            ("repro_serve_column_points", "histogram"),
            ("repro_serve_open_queries", "gauge"),
            ("repro_serve_workers_busy", "gauge"),
            ("repro_store_entries", "gauge"),
            ("repro_http_responses_2xx", "counter"),
        ):
            assert name in families, f"scrape missing family {name}"
            assert families[name].kind == kind
        # The registry is process-global, so assert liveness not totals.
        assert families["repro_serve_queries"].value("_total") >= 1
        bounds, cum = families[
            "repro_serve_query_seconds"].histogram_cumulative()
        assert cum == sorted(cum), "histogram buckets must be cumulative"
        assert bounds[-1] == float("inf")
        assert families["repro_serve_query_seconds"].value(
            "_count") == cum[-1]

    def test_one_hot_point_moves_exactly_its_counters(self):
        service = CodesignService(ResultStore(max_bytes=1 << 22), workers=1)
        query = Query.from_payload(
            dict(PAYLOAD, mode="fast", vlens=[512], l2_mbs=[1]))
        _run(service.handle_query(query, MemorySink()))  # lands in the store
        with METRICS.capture() as cap:
            _run(service.handle_query(query, MemorySink()))
        assert counter_delta(cap) == {
            "serve.queries": 1, "serve.points.store": 1, "store.hits": 1}

    def test_stats_carries_latency_and_pool_blocks(self):
        service = CodesignService(ResultStore(max_bytes=1 << 22), workers=3)
        payload = dict(PAYLOAD, mode="fast", vlens=[512], l2_mbs=[1])
        _run(service.handle_query(Query.from_payload(payload), MemorySink()))
        stats = service.stats()
        # The store block is one atomic snapshot (single lock) — the
        # occupancy and counter fields arrive together.
        assert set(stats["store"]) >= {
            "entries", "bytes", "max_bytes", "hits", "misses",
            "evictions", "coalesced", "disk_hits"}
        assert stats["store"]["entries"] == 1
        for hist in ("query_seconds", "point_seconds", "queue_seconds"):
            summary = stats["latency"][hist]
            assert set(summary) == {
                "count", "sum", "exact", "p50", "p95", "p99"}
        assert stats["latency"]["query_seconds"]["count"] >= 1
        assert stats["pool"] == {"size": 3, "busy": 0.0}

    def test_store_hit_points_carry_lookup_seconds(self):
        service = CodesignService(ResultStore(max_bytes=1 << 22))
        payload = dict(PAYLOAD, mode="fast", vlens=[512], l2_mbs=[1])
        query = Query.from_payload(payload)
        _run(service.handle_query(query, MemorySink()))
        sink = MemorySink()
        _run(service.handle_query(query, sink))
        point, = (e for e in sink.events if e["event"] == "point")
        assert point["source"] == "store"
        assert 0 <= point["seconds"] < 1.0, (
            "store-hit points must report their lookup latency "
            "(repro query --timing reads this field)"
        )

    def test_access_log_and_query_trace_tree(self, tmp_path):
        access = MemorySink()
        service = CodesignService(
            ResultStore(max_bytes=1 << 22), workers=2,
            trace_dir=tmp_path / "traces", access_sink=access)
        payload = dict(PAYLOAD, mode="fast", vlens=[512], l2_mbs=[1, 16])
        query = Query.from_payload(payload)
        _run(service.handle_query(query, MemorySink(), query_id="qt1"))
        _run(service.handle_query(query, MemorySink(), query_id="qt2"))

        # Access log: one event per query, full field set, honest mix.
        assert [e["query_id"] for e in access.events] == ["qt1", "qt2"]
        cold, hot = access.events
        for ev in (cold, hot):
            assert ev["event"] == "access"
            assert set(ev) >= {
                "query_id", "network", "network_hash", "mode", "points",
                "store_hits", "computed", "coalesced", "wall", "status"}
            assert ev["status"] == "ok"
            assert ev["points"] == 2
            assert ev["wall"] > 0
        assert cold["computed"] == 2 and cold["store_hits"] == 0
        assert hot["store_hits"] == 2 and hot["computed"] == 0

        # Trace trees: one query_<id>/ dir each, loadable by the
        # repro trace toolchain, sweep_worker subtree stamped with the
        # scheduling query's id.
        for qid in ("qt1", "qt2"):
            loaded = load_trace(tmp_path / "traces" / f"query_{qid}")
            assert loaded.span.name == "serve_query"
            assert loaded.span.attrs["query_id"] == qid
            assert loaded.manifest is not None
            assert loaded.manifest["query_id"] == qid
        cold_root = load_trace(tmp_path / "traces" / "query_qt1").span
        workers = [s for s in cold_root.children if s.name == "sweep_worker"]
        assert len(workers) == 1, "the cold column computes under qt1"
        assert workers[0].attrs["query_id"] == "qt1"
        hot_root = load_trace(tmp_path / "traces" / "query_qt2").span
        assert hot_root.children == [], "a pure store-hit query spawns none"

    def test_failed_query_is_logged_with_error_status(self):
        class Boom(Exception):
            pass

        def explode(*a, **k):
            raise Boom("kernel fell over")

        access = MemorySink()
        service = CodesignService(
            ResultStore(max_bytes=1 << 22), access_sink=access)
        payload = dict(PAYLOAD, mode="fast", vlens=[512], l2_mbs=[1])
        real = service_mod.evaluate_column
        service_mod.evaluate_column = explode
        try:
            with pytest.raises(Boom):
                _run(service.handle_query(
                    Query.from_payload(payload), MemorySink()))
        finally:
            service_mod.evaluate_column = real
        ev, = access.events
        assert ev["status"] == "error"
        assert ev["computed"] == 0


class TestShutdown:
    def test_drain_finishes_inflight_and_refuses_new(self):
        store = ResultStore(max_bytes=1 << 22)
        service = CodesignService(store, workers=1)
        payload = dict(PAYLOAD, mode="fast", vlens=[512], l2_mbs=[1, 16])
        query = Query.from_payload(payload)

        async def main():
            sink = MemorySink()
            task = asyncio.create_task(service.handle_query(query, sink))
            await asyncio.sleep(0)  # let the query schedule its columns
            await service.shutdown()
            assert task.done(), "drain must wait for open queries"
            sweep = task.result()
            assert sweep.is_complete
            # The drained points landed in the store (the serve
            # checkpoint) before the pool was released.
            assert len(store) == 2
            with pytest.raises(ConfigError, match="draining"):
                await service.handle_query(query, MemorySink())

        _run(main())

    def test_server_answers_503_while_draining(self):
        service = CodesignService(ResultStore(max_bytes=1 << 20))
        server = ServeServer(service)
        results = {}

        async def main():
            await server.start()
            service._draining = True
            port = server.port

            def client():
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=30)
                body = json.dumps(dict(PAYLOAD, mode="fast")).encode()
                conn.request("POST", "/v1/query", body=body,
                             headers={"Content-Length": str(len(body))})
                resp = conn.getresponse()
                results["status"] = resp.status
                conn.close()

            await _drive_threads([threading.Thread(target=client)])
            server._server.close()
            await server._server.wait_closed()

        _run(main())
        assert results["status"] == 503
