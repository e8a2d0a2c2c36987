"""The asyncio serving loop: queries in, NDJSON event streams out.

:class:`CodesignService` is the engine — transport-free, so tests can
drive it in-process — and :class:`ServeServer` is the stdlib HTTP/1.1
front-end ``repro serve`` runs.  The design:

- **store first** — every grid point is looked up in the
  content-addressed :class:`~repro.serve.store.ResultStore` before any
  work is scheduled; hot queries never touch the worker pool (the
  ``bench_serve_load`` benchmark pins this under a millisecond).
- **column batching** — cold points are grouped by VLEN and each group
  becomes one :func:`~repro.codesign.executor.evaluate_column` call, so
  the service amortizes the per-VLEN pass (exact recording / fast
  profiling) exactly like the sweep executor does.
- **cross-client coalescing** — each cold point registers an
  :class:`asyncio.Future` in an in-flight map; a second query wanting
  the same point (same content address) awaits that future instead of
  scheduling the work again.  N concurrent clients asking for one cold
  grid compute it exactly once.
- **bounded workers** — columns run in a
  :class:`~concurrent.futures.ThreadPoolExecutor` gated by an
  :class:`asyncio.Semaphore`, so at most ``workers`` simulations run
  at a time while the event loop keeps streaming progress.
- **graceful drain** — :meth:`CodesignService.shutdown` refuses new
  queries, lets scheduled columns finish (their points land in the
  store and, when configured, its durable directory — the in-flight
  checkpoint), then releases the pool.

Every event carries the client's ``query_id`` (stamped by a
:class:`~repro.obs.events.ScopedSink`), and the stream opens with a
:func:`~repro.obs.manifest.query_manifest` pinning the query's content
address, so any answer can be tied back to the cache entries that
produced it.

Telemetry (all observation-only):

- typed ``serve.*`` / ``http.*`` metrics on :data:`repro.obs.METRICS`
  (counters, pool gauges, latency histograms), rendered by
  ``GET /metrics`` in Prometheus text exposition format;
- an optional JSONL access log (``access_sink``): one ``access`` event
  per query with its id, content address, point mix, wall time and
  status;
- optional per-query trace trees (``trace_dir``): each query writes a
  ``query_<id>/`` trace directory whose ``sweep_worker`` subtrees carry
  the ``query_id``, consumable by ``repro trace diff/top/export``
  unchanged.
"""

from __future__ import annotations

import asyncio
import json
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable

from repro.codesign.executor import CHECKPOINT_VERSION, evaluate_column
from repro.codesign.sweep import SweepResult
from repro.errors import ConfigError, ReproError
from repro.nets.inference import ColumnResult
from repro.nets.layers import LayerSpec
from repro.obs.events import (
    LEVEL_WARNING,
    CallbackSink,
    EventSink,
    ScopedSink,
    event,
)
from repro.obs.manifest import query_manifest, write_manifest
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS, METRICS, render_prometheus
from repro.obs.render import trace_payload
from repro.obs.trace import Span, Tracer
from repro.codesign.codec import StoredPoint
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    JsonText,
    Query,
    encode_event,
    point_key,
    query_identity,
    splice_json,
)
from repro.serve.store import (
    SOURCE_COALESCED,
    SOURCE_COMPUTED,
    SOURCE_STORE,
    ResultStore,
)

#: What a resolved in-flight point future carries.
_PointValue = tuple[StoredPoint, float]

# Typed serve-path metrics (see repro.obs.metrics).  Module-level
# handles: creation is get-or-create on the process registry, and
# METRICS.reset() zeroes values in place, so these stay valid.
_M_QUERIES = METRICS.counter("serve.queries", "queries accepted")
_M_QUERIES_FAILED = METRICS.counter("serve.queries_failed", "queries that raised")
_M_REFUSED = METRICS.counter("serve.refused", "queries refused while draining")
_M_POINTS_STORE = METRICS.counter("serve.points.store", "points answered from the store")
_M_POINTS_COMPUTED = METRICS.counter("serve.points.computed", "points computed by this service")
_M_POINTS_COALESCED = METRICS.counter(
    "serve.points.coalesced", "points shared with another query's in-flight compute"
)
_G_OPEN = METRICS.gauge("serve.open_queries", "queries currently being answered")
_G_INFLIGHT = METRICS.gauge("serve.inflight_points", "cold points currently being computed")
_G_BUSY = METRICS.gauge("serve.workers.busy", "worker threads evaluating a column right now")
_H_QUERY = METRICS.histogram("serve.query.seconds", "end-to-end query wall time")
_H_POINT = METRICS.histogram(
    "serve.point.seconds", "per-point service time (store lookup or compute share)"
)
_H_QUEUE = METRICS.histogram("serve.queue.seconds", "column wait for a worker slot")
_H_BATCH = METRICS.histogram(
    "serve.column.points", "points batched into one VLEN column",
    buckets=DEFAULT_SIZE_BUCKETS,
)
_M_HTTP = {
    2: METRICS.counter("http.responses.2xx", "HTTP responses with a 2xx status"),
    4: METRICS.counter("http.responses.4xx", "HTTP responses with a 4xx status"),
    5: METRICS.counter("http.responses.5xx", "HTTP responses with a 5xx status"),
}


def _count_status(status: int) -> None:
    counter = _M_HTTP.get(status // 100)
    if counter is not None:
        counter.inc()


def _column_worker(
    query: Query,
    vlen: int,
    l2_mbs: tuple[int, ...],
    collect: bool = False,
    query_id: str | None = None,
) -> tuple[ColumnResult, list[float], dict[str, Any]]:
    """Evaluate one VLEN column (runs on a worker thread).

    With ``collect`` the column's ``sweep_worker`` span subtree comes
    back in ``extras`` — stamped with the ``query_id``, because ambient
    contextvars do not cross ``run_in_executor`` — so the service can
    graft it into the query's trace tree.  Metrics need no shipping:
    the worker threads bump the process registry directly.
    """
    layers: list[LayerSpec] = list(query.layers)
    return evaluate_column(
        query.network, layers, vlen, l2_mbs,
        hybrid=query.hybrid, variant=query.variant,
        base_config=query.config, mode=query.mode,
        collect=collect,
        span_attrs={"query_id": query_id} if query_id is not None else None,
    )


def _point_payload(
    query: Query, vlen: int, l2_mb: int, result: dict[str, Any]
) -> dict[str, Any]:
    """One computed point in the checkpoint point schema (what the
    store encodes and what ``--checkpoint-dir`` would have written);
    ``result`` is the point's ``NetworkResult.to_dict()`` form."""
    return {
        "version": CHECKPOINT_VERSION,
        "backend": query.mode,
        "vlen": int(vlen),
        "l2_mb": int(l2_mb),
        "result": result,
    }


class NdjsonSink(CallbackSink):
    """The wire writer: each event framed by :func:`encode_event` and
    handed to ``write`` as one NDJSON line.

    The service hands this sink the ``query_result`` sweep as
    :class:`~repro.serve.protocol.JsonText`, spliced from the stored
    points' bytes, and the ``query_manifest`` manifest as JSON text
    spliced from its content address's cached identity and
    configuration text; every other sink gets both as dicts.
    """

    def __init__(self, write: Callable[[bytes], None]) -> None:
        super().__init__(lambda ev: write(encode_event(ev)))


class CodesignService:
    """The transport-free serving engine (one per process).

    Args:
        store: the content-addressed result store answering hot points.
        workers: bound on concurrently evaluating columns.
        trace_dir: when set, every query writes a ``query_<id>/`` trace
            directory (span tree + manifest) under it, loadable by
            ``repro trace diff/top/export`` unchanged.
        access_sink: when set, one structured ``access`` event is
            emitted per query (the JSONL access log when the caller
            hands in a :class:`~repro.obs.events.JsonlSink`).
    """

    def __init__(self, store: ResultStore | None = None,
                 workers: int = 2,
                 trace_dir: str | Path | None = None,
                 access_sink: EventSink | None = None) -> None:
        self.store = store if store is not None else ResultStore()
        self.workers = max(1, int(workers))
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        self._access = access_sink
        self._pool: ThreadPoolExecutor | None = None
        self._sem = asyncio.Semaphore(self.workers)
        self._inflight: dict[str, "asyncio.Future[_PointValue]"] = {}
        self._tasks: set["asyncio.Task[None]"] = set()
        self._draining = False
        self.open_queries = 0
        self.queries_served = 0

    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once :meth:`shutdown` started; new queries are refused."""
        return self._draining

    def stats(self) -> dict[str, Any]:
        """The ``GET /v1/stats`` payload.

        The store sub-dict is
        :meth:`~repro.serve.store.ResultStore.snapshot`: occupancy
        copied under the store's lock plus the process-wide store
        counters of :data:`~repro.obs.METRICS`.
        """
        _G_OPEN.set(self.open_queries)
        _G_INFLIGHT.set(len(self._inflight))
        return {
            "workers": self.workers,
            "draining": self._draining,
            "open_queries": self.open_queries,
            "queries_served": self.queries_served,
            "inflight_points": len(self._inflight),
            "store": self.store.snapshot(),
            "latency": {
                "query_seconds": _H_QUERY.summary(),
                "point_seconds": _H_POINT.summary(),
                "queue_seconds": _H_QUEUE.summary(),
            },
            "pool": {"size": self.workers, "busy": _G_BUSY.value},
        }

    def render_metrics(self) -> str:
        """The ``GET /metrics`` body (Prometheus text exposition).

        Level gauges (store occupancy, open queries, in-flight points)
        are refreshed at scrape time so the exposition reflects the
        instant of the scrape, not the last mutation.
        """
        self.store.snapshot()  # refreshes store.entries / store.bytes
        _G_OPEN.set(self.open_queries)
        _G_INFLIGHT.set(len(self._inflight))
        return render_prometheus(METRICS)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="serve-worker",
            )
        return self._pool

    # ------------------------------------------------------------------
    async def handle_query(
        self,
        query: Query,
        sink: EventSink,
        query_id: str | None = None,
    ) -> SweepResult:
        """Answer one query, streaming progress events into ``sink``.

        Store hits are answered immediately, their stored bytes spliced
        under this query's labels; cold points are batched by VLEN
        column onto the worker pool (or coalesced onto another query's
        in-flight computation).  Returns the assembled
        :class:`~repro.codesign.SweepResult`, bit-identical to a direct
        :func:`~repro.codesign.codesign_sweep` over the same grid; its
        points are decoded only when looked up.
        """
        if self._draining:
            _M_REFUSED.inc()
            raise ConfigError("service is draining (shutdown in progress)")
        qid = query_id if query_id else uuid.uuid4().hex[:12]
        scoped = ScopedSink(sink, query_id=qid)
        _M_QUERIES.inc()
        self.open_queries += 1
        _G_OPEN.set(self.open_queries)
        started = time.perf_counter()
        nh = query.network_hash
        spliced = isinstance(sink, NdjsonSink)
        served = {SOURCE_STORE: 0, SOURCE_COMPUTED: 0, SOURCE_COALESCED: 0}
        tracer = Tracer() if self.trace_dir is not None else None
        status = "ok"
        try:
            if tracer is not None:
                with tracer.span(
                    "serve_query", query_id=qid, network=query.network,
                    network_hash=nh, backend=query.mode,
                ):
                    return await self._answer(
                        query, scoped, qid, started, nh, served, tracer,
                        spliced)
            return await self._answer(
                query, scoped, qid, started, nh, served, None, spliced)
        except BaseException:
            status = "error"
            _M_QUERIES_FAILED.inc()
            raise
        finally:
            wall = time.perf_counter() - started
            _H_QUERY.observe(wall)
            self.open_queries -= 1
            _G_OPEN.set(self.open_queries)
            if self._access is not None:
                self._access.emit(event(
                    "access", query_id=qid, network=query.network,
                    network_hash=nh, mode=query.mode,
                    points=len(query.points),
                    store_hits=served[SOURCE_STORE],
                    computed=served[SOURCE_COMPUTED],
                    coalesced=served[SOURCE_COALESCED],
                    wall=round(wall, 6), status=status,
                ))
            if tracer is not None:
                self._write_query_trace(tracer, query, qid)

    def _write_query_trace(
        self, tracer: Tracer, query: Query, qid: str
    ) -> None:
        """Persist one query's span tree as a ``--trace`` directory.

        ``trace_dir/query_<id>/`` gets the same ``trace.json`` +
        ``manifest.json`` pair ``repro profile --trace`` writes, so
        ``repro trace diff/top/export`` consume it unchanged.
        """
        assert self.trace_dir is not None
        qdir = self.trace_dir / f"query_{qid}"
        qdir.mkdir(parents=True, exist_ok=True)
        manifest = query_manifest(
            qid, query_identity(query), config=query.config_dict,
            backend=query.mode,
        )
        write_manifest(qdir, manifest)
        (qdir / "trace.json").write_text(
            json.dumps(trace_payload(tracer.root, manifest)) + "\n",
            encoding="utf-8",
        )

    async def _answer(
        self,
        query: Query,
        sink: ScopedSink,
        qid: str,
        started: float,
        nh: str,
        served: dict[str, int],
        tracer: Tracer | None,
        spliced: bool,
    ) -> SweepResult:
        total = len(query.points)
        sink.emit(event(
            "query_start", protocol=PROTOCOL_VERSION, network=query.network,
            backend=query.mode, network_hash=nh,
            vlens=list(query.vlens), l2_mbs=list(query.l2_mbs), points=total,
        ))
        manifest = query_manifest(
            qid, query_identity(query), config=query.config_dict,
            backend=query.mode,
        )
        if spliced:
            manifest.update(identity=query.identity_json,
                            config=query.config_json)
        sink.emit(event("query_manifest", manifest=(
            splice_json(manifest) if spliced else manifest)))

        # Each point is its JSON text under this query's labels.
        labels = query.json_labels
        results: dict[tuple[int, int], str] = {}
        waits: list[
            tuple[int, int, "asyncio.Future[_PointValue]", str]
        ] = []
        cold: dict[int, list[int]] = {}
        for vlen, l2_mb in query.points:
            key = point_key(query, vlen, l2_mb)
            t0 = time.perf_counter()
            stored = self.store.get(key)
            if stored is not None:
                lookup = time.perf_counter() - t0
                results[(vlen, l2_mb)] = stored.result_json(labels)
                served[SOURCE_STORE] += 1
                _H_POINT.observe(lookup)
                sink.emit(event(
                    "point", vlen=vlen, l2_mb=l2_mb, source=SOURCE_STORE,
                    seconds=round(lookup, 6), done=len(results), total=total,
                ))
                continue
            inflight = self._inflight.get(key)
            if inflight is not None:
                waits.append((vlen, l2_mb, inflight, SOURCE_COALESCED))
            else:
                cold.setdefault(vlen, []).append(l2_mb)
        if served[SOURCE_STORE]:  # bumped once per query, not per point
            _M_POINTS_STORE.inc(served[SOURCE_STORE])

        loop = asyncio.get_running_loop()
        for vlen, l2s in sorted(cold.items()):
            futs: dict[int, "asyncio.Future[_PointValue]"] = {}
            for l2_mb in l2s:
                fut: "asyncio.Future[_PointValue]" = loop.create_future()
                self._inflight[point_key(query, vlen, l2_mb)] = fut
                futs[l2_mb] = fut
                waits.append((vlen, l2_mb, fut, SOURCE_COMPUTED))
            _H_BATCH.observe(len(l2s))
            task = asyncio.create_task(
                self._compute_column(query, vlen, tuple(l2s), futs,
                                     tracer=tracer, query_id=qid))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        if cold:
            _G_INFLIGHT.set(len(self._inflight))

        # Shield every await: the in-flight futures may be shared with
        # other queries, so one client vanishing must not cancel the
        # computation under everyone else.  gather-with-exceptions so a
        # failing column leaves no "exception never retrieved" noise.
        outcomes = await asyncio.gather(
            *(asyncio.shield(fut) for _, _, fut, _ in waits),
            return_exceptions=True,
        )
        failure: BaseException | None = None
        for (vlen, l2_mb, _fut, source), outcome in zip(waits, outcomes):
            if isinstance(outcome, BaseException):
                if failure is None:
                    failure = outcome
                continue
            stored, seconds = outcome
            results[(vlen, l2_mb)] = stored.result_json(labels)
            served[source] += 1
            _H_POINT.observe(seconds)
            sink.emit(event(
                "point", vlen=vlen, l2_mb=l2_mb, source=source,
                seconds=round(seconds, 6), done=len(results), total=total,
            ))
        if served[SOURCE_COALESCED]:
            _M_POINTS_COALESCED.inc(served[SOURCE_COALESCED])
        if failure is not None:
            raise failure

        sweep = SweepResult(
            name=query.network, vlens=query.vlens, l2_mbs=query.l2_mbs,
            results=results, backend=query.mode,
        )
        sink.emit(event(
            "query_end", seconds=round(time.perf_counter() - started, 6),
            served=dict(served),
        ))
        sink.emit(event("query_result", sweep=(
            JsonText(sweep.to_json()) if spliced else sweep.to_dict())))
        self.queries_served += 1
        return sweep

    async def _compute_column(
        self,
        query: Query,
        vlen: int,
        l2_mbs: tuple[int, ...],
        futs: dict[int, "asyncio.Future[_PointValue]"],
        tracer: Tracer | None = None,
        query_id: str | None = None,
    ) -> None:
        """Run one VLEN column on the pool and resolve its point futures."""
        loop = asyncio.get_running_loop()
        keys = {l2: point_key(query, vlen, l2) for l2 in l2_mbs}
        try:
            enqueued = time.perf_counter()
            async with self._sem:
                _H_QUEUE.observe(time.perf_counter() - enqueued)
                _G_BUSY.inc()
                try:
                    column, seconds, extras = await loop.run_in_executor(
                        self._ensure_pool(), _column_worker, query, vlen,
                        l2_mbs, tracer is not None, query_id,
                    )
                finally:
                    _G_BUSY.dec()
            if tracer is not None and extras.get("span"):
                # Ambient contextvars do not cross run_in_executor, so
                # the worker recorded into a local tracer; graft its
                # query_id-stamped subtree under the open serve_query
                # span (the scheduling query's root is still open: it
                # is awaiting these very futures).
                tracer.attach(Span.from_dict(extras["span"]))
            for i, (l2_mb, secs) in enumerate(zip(column.l2_mbs, seconds)):
                stored = self.store.put(keys[l2_mb], _point_payload(
                    query, vlen, l2_mb, column.point_dict(i)))
                _M_POINTS_COMPUTED.inc()
                self._inflight.pop(keys[l2_mb], None)
                fut = futs[l2_mb]
                if not fut.done():
                    fut.set_result((stored, secs))
            _G_INFLIGHT.set(len(self._inflight))
        except BaseException as e:
            for l2_mb, fut in futs.items():
                self._inflight.pop(keys[l2_mb], None)
                if not fut.done():
                    fut.set_exception(e)
            _G_INFLIGHT.set(len(self._inflight))
            if isinstance(e, asyncio.CancelledError):
                raise

    # ------------------------------------------------------------------
    async def shutdown(self) -> None:
        """Graceful drain: refuse new queries, finish in-flight columns
        (their points land in the store — and its durable directory when
        configured, the service's checkpoint), release the pool."""
        self._draining = True
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        while self.open_queries:
            await asyncio.sleep(0.01)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# ----------------------------------------------------------------------
# The stdlib HTTP front-end.
# ----------------------------------------------------------------------
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    413: "Payload Too Large", 503: "Service Unavailable",
}

#: Largest request body the server will read.  A topology payload for
#: the deepest supported networks is well under a megabyte; anything
#: bigger is a broken client, answered 413 instead of buffered.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Prometheus text exposition content type (format 0.0.4).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _write_json(
    writer: asyncio.StreamWriter, status: int, payload: dict[str, Any]
) -> None:
    body = (json.dumps(payload) + "\n").encode("utf-8")
    _write_body(writer, status, "application/json", body)


def _write_text(
    writer: asyncio.StreamWriter, status: int, text: str,
    content_type: str = METRICS_CONTENT_TYPE,
) -> None:
    _write_body(writer, status, content_type, text.encode("utf-8"))


def _write_body(
    writer: asyncio.StreamWriter, status: int, content_type: str,
    body: bytes,
) -> None:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    _count_status(status)


class _BadRequest(Exception):
    """A request the server refuses to read further, with its status."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes] | None:
    """Parse one HTTP/1.1 request (request line, headers, sized body).

    Oversized request/header lines (the stream reader's 64 KiB line
    limit) and bodies beyond :data:`MAX_BODY_BYTES` raise
    :class:`_BadRequest`, which the handler answers with a one-line
    JSON error — never a hang, never a truncated read treated as a
    whole request.
    """
    try:
        line = await reader.readline()
    except ValueError:
        raise _BadRequest(400, "request line too long") from None
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        return None
    method, target = parts[0].upper(), parts[1]
    length = 0
    while True:
        try:
            header = await reader.readline()
        except ValueError:
            raise _BadRequest(400, "request header line too long") from None
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                length = 0
    if length > MAX_BODY_BYTES:
        raise _BadRequest(
            413, f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte cap")
    body = await reader.readexactly(length) if length > 0 else b""
    return method, target, body


class ServeServer:
    """``repro serve``: the asyncio HTTP wrapper around a service.

    Routes: ``GET /v1/healthz``, ``GET /v1/stats``, ``GET /metrics``
    (Prometheus text exposition), and ``POST /v1/query`` → a
    ``Connection: close`` NDJSON event stream.  Malformed queries
    answer 400 with a one-line JSON error — never a traceback — a
    too-large body answers 413, and a draining service answers 503.
    """

    def __init__(self, service: CodesignService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None

    async def start(self) -> None:
        """Bind and start accepting (resolves ``port=0`` to the real
        ephemeral port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        for sock in self._server.sockets or []:
            self.port = int(sock.getsockname()[1])
            break

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, then drain the service (graceful shutdown)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.shutdown()

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await _read_request(reader)
            except _BadRequest as bad:
                _write_json(writer, bad.status, {"error": bad.reason})
                await writer.drain()
                return
            if request is not None:
                method, target, body = request
                await self._route(writer, method, target, body)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # client went away mid-request; nothing left to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self, writer: asyncio.StreamWriter, method: str, target: str,
        body: bytes,
    ) -> None:
        if method == "GET" and target in ("/healthz", "/v1/healthz"):
            _write_json(writer, 200, {
                "ok": True, "draining": self.service.draining,
            })
        elif method == "GET" and target in ("/stats", "/v1/stats"):
            _write_json(writer, 200, self.service.stats())
        elif method == "GET" and target in ("/metrics", "/v1/metrics"):
            _write_text(writer, 200, self.service.render_metrics())
        elif method == "POST" and target == "/v1/query":
            await self._query(writer, body)
        else:
            _write_json(writer, 404, {
                "error": f"no route for {method} {target}",
            })

    async def _query(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        if self.service.draining:
            _write_json(writer, 503, {"error": "service is draining"})
            return
        try:
            payload = json.loads(body.decode("utf-8"))
            query = Query.from_payload(payload)
        except (ValueError, ReproError) as e:
            _write_json(writer, 400, {"error": str(e)})
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        _count_status(200)

        # Events are emitted from the event-loop thread only, so the
        # synchronous write into the stream writer is safe; NDJSON lines
        # flush with the final drain (and on backpressure).  Once the
        # client disconnects mid-stream the events are dropped instead
        # of buffered onto a dead transport — the computation itself
        # keeps running (its futures may be shared with other queries)
        # and its points still land in the store.
        def _write(line: bytes) -> None:
            if not writer.is_closing():
                writer.write(line)

        sink = NdjsonSink(_write)
        try:
            await self.service.handle_query(query, sink)
        except ReproError as e:
            sink.emit(event("query_error", level=LEVEL_WARNING,
                            reason=str(e)))
