"""NDJSON framing and HTTP robustness: fail loudly, never hang.

A streaming protocol has exactly two honest failure modes — a clean
error or a dropped connection — and these tests pin that the serve
path never invents a third (a hang, a torn frame presented as data, a
truncated body treated as a whole request):

- :func:`iter_ndjson` drops a *trailing* torn line (the peer died
  mid-write) but raises :class:`ObsError` on a torn line *followed by
  more data* — a live stream that skips frames is corruption;
- oversized request/header lines answer 400, oversized bodies 413,
  and after each the server keeps answering (one bad client cannot
  wedge the loop);
- a client that sends a partial body and disconnects is dropped
  without a hang;
- a slow byte-by-byte writer is still answered in full;
- a client that disconnects mid-stream does not cancel the
  computation: the points land in the store and a follow-up query is
  answered entirely from it.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.errors import ObsError
from repro.obs import METRICS, MemorySink
from repro.serve import (
    CodesignService,
    Query,
    ResultStore,
    ServeServer,
    iter_ndjson,
)
from repro.serve.protocol import JsonText, encode_event, splice_json
from repro.serve.service import MAX_BODY_BYTES, NdjsonSink
from tests.metrics_delta import counter_delta

pytestmark = pytest.mark.serve

PAYLOAD = {"network": "vgg16", "max_layers": 2,
           "vlens": [512], "l2_mbs": [1, 16], "mode": "fast"}


class TestEncodeEvent:
    def test_json_text_values_are_spliced_verbatim(self):
        value = {"name": "n\u00e9t", "xs": [1, 2.5, None], "ok": True}
        ev = {"event": "query_result", "level": "info",
              "sweep": JsonText(json.dumps(value)), "query_id": "q", "seq": 3}
        plain = {**ev, "sweep": value}
        assert encode_event(ev) == (json.dumps(plain) + "\n").encode()
        assert encode_event(plain) == encode_event(ev)
        assert list(iter_ndjson([encode_event(ev)])) == [plain]

    def test_nested_json_text_is_spliced_verbatim(self):
        inner = {"identity": {"layers": [{"kind": "conv", "c_in": 3}]},
                 "argv": ["repro", "serve"], "started_unix": 1.25}
        spliced = {**inner, "identity": JsonText(json.dumps(inner["identity"]))}
        ev = {"event": "query_manifest", "manifest": splice_json(spliced)}
        assert encode_event(ev) == encode_event({**ev, "manifest": inner})
        assert list(iter_ndjson([encode_event(ev)])) == [{**ev, "manifest": inner}]

    def test_served_manifest_is_the_dict_manifest(self):
        """The wire's spliced ``query_manifest`` line is the canonical
        encoding of the manifest every other sink gets as a dict; only
        the start time differs between two queries."""
        service = CodesignService(ResultStore(max_bytes=1 << 22))
        query = Query.from_payload(PAYLOAD)
        lines: list[bytes] = []
        memory = MemorySink()
        for sink in (NdjsonSink(lines.append), memory):
            asyncio.run(service.handle_query(query, sink, query_id="q"))
        (line,) = (ln for ln in lines if b'"query_manifest"' in ln)
        decoded = json.loads(line)
        assert encode_event(decoded) == line
        (want,) = (e["manifest"] for e in memory.events
                   if e["event"] == "query_manifest")
        got = decoded["manifest"]
        assert got.pop("started_unix") <= want.pop("started_unix")
        assert got == want
        assert got["identity"] == query.identity


class TestIterNdjson:
    def test_trailing_torn_line_is_dropped(self):
        stream = [b'{"event": "a"}\n', b'{"event": "b"\n']
        events = list(iter_ndjson(stream))
        assert [e["event"] for e in events] == ["a"]

    def test_torn_line_mid_stream_raises(self):
        stream = [b'{"event": "a"}\n', b'{"torn!\n', b'{"event": "b"}\n']
        it = iter_ndjson(stream)
        assert next(it)["event"] == "a"
        with pytest.raises(ObsError, match="torn NDJSON frame mid-stream"):
            next(it)

    def test_blank_line_after_torn_line_still_raises(self):
        # Even padding after a torn frame proves the stream lived on.
        stream = [b'{"torn!\n', b'\n']
        with pytest.raises(ObsError, match="torn"):
            list(iter_ndjson(stream))

    def test_blank_lines_and_non_dicts_are_skipped(self):
        stream = [b'\n', b'  \n', b'[1, 2]\n', b'{"event": "a"}\n']
        assert [e["event"] for e in iter_ndjson(stream)] == ["a"]

    def test_invalid_utf8_is_a_torn_frame(self):
        stream = [b'\xff\xfe garbage \xff\n', b'{"event": "a"}\n']
        with pytest.raises(ObsError, match="torn"):
            list(iter_ndjson(stream))

    def test_empty_stream_yields_nothing(self):
        assert list(iter_ndjson([])) == []


async def _drive_threads(threads):
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads):
        await asyncio.sleep(0.01)
    for t in threads:
        t.join()


def _raw_exchange(port, data, timeout=30, read_response=True,
                  byte_by_byte=False):
    """One raw-socket request; returns the full response bytes."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        if byte_by_byte:
            for i in range(len(data)):
                s.sendall(data[i:i + 1])
                time.sleep(0.001)
        else:
            s.sendall(data)
        if not read_response:
            return b""
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


def _healthz(port):
    raw = _raw_exchange(
        port, b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
    return int(raw.split(b" ", 2)[1])


class TestHttpHardening:
    def _with_server(self, scenario):
        """Run ``scenario(port, out)`` threads against a live server."""
        service = CodesignService(ResultStore(max_bytes=1 << 20))
        server = ServeServer(service)
        out = {}

        async def main():
            await server.start()
            await _drive_threads([threading.Thread(
                target=scenario, args=(server.port, out))])
            await server.stop()

        asyncio.run(main())
        return out

    def test_oversized_request_line_answers_400_and_survives(self):
        def scenario(port, out):
            long_target = b"/" + b"a" * (70 * 1024)  # beyond the 64KiB limit
            raw = _raw_exchange(
                port, b"GET " + long_target + b" HTTP/1.1\r\n\r\n")
            out["status"] = int(raw.split(b" ", 2)[1])
            out["body"] = raw.split(b"\r\n\r\n", 1)[1]
            out["health_after"] = _healthz(port)

        out = self._with_server(scenario)
        assert out["status"] == 400
        assert "too long" in json.loads(out["body"])["error"]
        assert out["health_after"] == 200

    def test_oversized_header_line_answers_400(self):
        def scenario(port, out):
            raw = _raw_exchange(
                port,
                b"GET /v1/healthz HTTP/1.1\r\n"
                b"X-Pad: " + b"p" * (70 * 1024) + b"\r\n\r\n")
            out["status"] = int(raw.split(b" ", 2)[1])
            out["health_after"] = _healthz(port)

        out = self._with_server(scenario)
        assert out["status"] == 400
        assert out["health_after"] == 200

    def test_oversized_body_answers_413_without_reading_it(self):
        def scenario(port, out):
            head = (
                f"POST /v1/query HTTP/1.1\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
            ).encode()
            # Send only the head: a server that tried to buffer the
            # declared body would block here instead of answering.
            raw = _raw_exchange(port, head)
            out["status"] = int(raw.split(b" ", 2)[1])
            out["body"] = raw.split(b"\r\n\r\n", 1)[1]
            out["health_after"] = _healthz(port)

        out = self._with_server(scenario)
        assert out["status"] == 413
        assert "exceeds" in json.loads(out["body"])["error"]
        assert out["health_after"] == 200

    def test_partial_body_then_disconnect_does_not_hang(self):
        def scenario(port, out):
            head = (b"POST /v1/query HTTP/1.1\r\n"
                    b"Content-Length: 1000\r\n\r\n")
            _raw_exchange(port, head + b'{"network": "vg',
                          read_response=False)
            out["health_after"] = _healthz(port)

        out = self._with_server(scenario)
        assert out["health_after"] == 200

    def test_slow_byte_by_byte_writer_is_answered_in_full(self):
        def scenario(port, out):
            body = json.dumps(PAYLOAD).encode()
            data = (
                f"POST /v1/query HTTP/1.1\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body
            raw = _raw_exchange(port, data, byte_by_byte=True, timeout=300)
            out["status"] = int(raw.split(b" ", 2)[1])
            payload = raw.split(b"\r\n\r\n", 1)[1]
            out["events"] = list(iter_ndjson(payload.splitlines(True)))

        out = self._with_server(scenario)
        assert out["status"] == 200
        assert out["events"][-1]["event"] == "query_result"

    def test_midstream_disconnect_completes_compute_and_fills_store(self):
        store = ResultStore(max_bytes=1 << 22)
        service = CodesignService(store, workers=1)
        server = ServeServer(service)
        out = {}

        async def main():
            await server.start()
            port = server.port

            def vanish():
                body = json.dumps(PAYLOAD).encode()
                data = (
                    f"POST /v1/query HTTP/1.1\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode() + body
                with socket.create_connection(
                    ("127.0.0.1", port), timeout=300
                ) as s:
                    s.sendall(data)
                    s.recv(1)  # first byte of the stream, then vanish

            await _drive_threads([threading.Thread(target=vanish)])
            # The abandoned query's column keeps computing; wait for it.
            while service.open_queries or service._tasks:
                await asyncio.sleep(0.01)
            out["stored"] = len(store)

            sink = MemorySink()
            with METRICS.capture() as cap:
                await service.handle_query(Query.from_payload(PAYLOAD), sink)
            out["recomputed"] = counter_delta(cap).get(
                "serve.points.computed", 0)
            out["sources"] = [e["source"] for e in sink.events
                              if e["event"] == "point"]
            await server.stop()

        asyncio.run(main())
        assert out["stored"] == 2, (
            "the abandoned computation's points must land in the store"
        )
        assert out["recomputed"] == 0
        assert out["sources"] == ["store", "store"]
