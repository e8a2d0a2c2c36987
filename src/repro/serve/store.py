"""The content-addressed result store behind ``repro serve``.

One entry per answered grid point, keyed by
:func:`repro.serve.protocol.point_key` (network hash x backend x grid
point) and holding a point in the *checkpoint point schema* —
``{"version", "backend", "vlen", "l2_mb", "result"}``, exactly what
:mod:`repro.codesign.executor` writes under ``--checkpoint-dir`` — so
a sweep's checkpoint directory can be ingested as a warm cache
(:meth:`ResultStore.ingest_checkpoint_dir`).  An entry is held encoded,
once: a :class:`~repro.codesign.codec.StoredPoint`, the point's canonical
JSON text cut at its label slots, which the service splices into its
answers and the durable tier writes as is.

Consistency guarantees:

- **exactly-once compute** — :meth:`ResultStore.get_or_compute`
  coalesces concurrent callers of one key: the first runs the compute
  in its own thread, the rest block on its future and share the
  result; a failed compute propagates to every waiter and leaves the
  key absent (the next caller retries).
- **bounded memory** — entries are LRU-evicted once the resident
  encoded points exceed ``max_bytes`` (each counted by the length of
  its canonical JSON text, which is what it holds).  An entry larger
  than the whole budget is stored nowhere and served pass-through.
- **durable tier** — with ``directory`` set, every ``put`` also
  persists the entry atomically (unique temp + fsync + rename, the
  checkpoint writer's discipline), eviction drops only the memory
  copy, and a ``get`` miss falls back to disk; a service killed
  mid-run therefore restarts warm, losing at most the point that was
  in flight.
- **strict on read** — an entry file, or an ingested checkpoint point,
  is accepted only if it is byte for byte the canonical encoding of
  the point it decodes to, with no negative or non-finite number
  (:func:`repro.codesign.codec.read_point`).  A rejected entry file is a
  miss (the point is recomputed and rewritten); a rejected checkpoint
  point is skipped with a ``checkpoint_corrupt`` warning.  Both count
  in ``store.rejected``.

Observability: the ``store.{hits,misses,coalesced,evictions,disk_hits,
rejected}`` counters on the process-global :data:`repro.obs.METRICS`
registry (``GET /metrics``).  :meth:`ResultStore.snapshot` is the
``/v1/stats`` view: occupancy (``entries``, ``bytes``) copied under the
store's lock plus the registry's counter values, which are process-wide
— the same thing for the one store a served process runs.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from collections.abc import Mapping
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Callable, Union

from repro.codesign.codec import StoredPoint, encode_point, read_point
from repro.codesign.executor import (
    CHECKPOINT_VERSION,
    MANIFEST_NAME,
    _manifest_identity,
    _point_path,
    _write_text_atomic,
)
from repro.errors import ConfigError
from repro.obs.events import LEVEL_WARNING, EventSink, event
from repro.obs.metrics import METRICS
from repro.serve.protocol import Query, point_key

#: Default in-memory budget in MB.
DEFAULT_STORE_BUDGET_MB = 64

#: How a get-or-compute was answered (also the wire-visible source tag).
SOURCE_STORE = "store"
SOURCE_COMPUTED = "computed"
SOURCE_COALESCED = "coalesced"

_M_HITS = METRICS.counter("store.hits", "store lookups answered from memory or disk")
_M_MISSES = METRICS.counter("store.misses", "store lookups that required a compute")
_M_COALESCED = METRICS.counter(
    "store.coalesced", "callers that waited on another caller's in-flight compute"
)
_M_EVICTIONS = METRICS.counter("store.evictions", "entries LRU-evicted over the byte budget")
_M_DISK_HITS = METRICS.counter("store.disk_hits", "hits served by reading the durable tier")
_M_REJECTED = METRICS.counter(
    "store.rejected", "entry files and checkpoint points refused on read (not canonical)"
)
_G_ENTRIES = METRICS.gauge("store.entries", "resident store entries")
_G_BYTES = METRICS.gauge("store.bytes", "resident store payload bytes")

#: The ``/v1/stats`` store keys read from the registry's counters.
_STORE_TOTALS = {
    "hits": _M_HITS, "misses": _M_MISSES, "coalesced": _M_COALESCED,
    "evictions": _M_EVICTIONS, "disk_hits": _M_DISK_HITS,
    "rejected": _M_REJECTED,
}

#: What ``put`` and a compute hand the store: a payload dict, or one
#: already encoded.
PointPayload = Union[Mapping[str, Any], StoredPoint]


def _stored(payload: Any) -> StoredPoint:
    """Schema-check one point payload (the checkpoint point schema's
    envelope) and encode it, unless it already is."""
    if isinstance(payload, StoredPoint):
        return payload
    if not isinstance(payload, Mapping):
        raise ConfigError("store payload is not a JSON object")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ConfigError(
            f"store payload schema v{version!r} (this store speaks "
            f"v{CHECKPOINT_VERSION})"
        )
    for required in ("backend", "vlen", "l2_mb", "result"):
        if required not in payload:
            raise ConfigError(f"store payload missing {required!r}")
    return encode_point(payload)


class ResultStore:
    """Thread-safe, byte-budgeted, content-addressed result cache."""

    def __init__(
        self,
        max_bytes: int | None = None,
        directory: str | Path | None = None,
    ) -> None:
        self.max_bytes = (
            DEFAULT_STORE_BUDGET_MB * 1024 * 1024
            if max_bytes is None else max(0, int(max_bytes))
        )
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, StoredPoint]" = OrderedDict()
        self._inflight: dict[str, Future[StoredPoint]] = {}
        #: Resident encoded bytes, the LRU's budget measure.
        self._bytes = 0

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, int]:
        """The ``/v1/stats`` view: occupancy plus the store counters.

        ``entries`` and ``bytes`` are copied under one lock, so they
        agree with each other.  The counters are the registry's
        process-wide totals.  Also refreshes the ``store.entries`` /
        ``store.bytes`` gauges, so a ``/metrics`` scrape that follows a
        ``/stats`` read cannot disagree with it about occupancy.
        """
        with self._lock:
            out = {
                "entries": len(self._entries),
                "max_bytes": self.max_bytes,
                "bytes": self._bytes,
            }
        out.update((k, int(c.value)) for k, c in _STORE_TOTALS.items())
        _G_ENTRIES.set(out["entries"])
        _G_BYTES.set(out["bytes"])
        return out

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> StoredPoint | None:
        """The stored point for ``key``, or ``None`` (counted)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                _M_HITS.inc()
                return entry
        payload = self._disk_get(key)
        if payload is not None:
            with self._lock:
                self._admit_locked(key, payload)
            _M_HITS.inc()
            _M_DISK_HITS.inc()
            return payload
        _M_MISSES.inc()
        return None

    def put(self, key: str, payload: PointPayload) -> StoredPoint:
        """Insert (or refresh) one point payload under its key; returns
        it encoded."""
        payload = _stored(payload)
        with self._lock:
            self._admit_locked(key, payload)
        self._disk_put(key, payload)
        return payload

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], PointPayload],
    ) -> tuple[StoredPoint, str]:
        """Answer ``key`` from the store, or compute it exactly once.

        Returns ``(payload, source)`` where ``source`` is
        :data:`SOURCE_STORE` (cache hit), :data:`SOURCE_COMPUTED` (this
        caller ran ``compute``), or :data:`SOURCE_COALESCED` (another
        caller was already computing it; this one waited and shares the
        result).  N concurrent callers of one cold key run ``compute``
        exactly once.
        """
        owner = False
        fut: Future[StoredPoint]
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                _M_HITS.inc()
                return entry, SOURCE_STORE
            existing = self._inflight.get(key)
            if existing is None:
                fut = Future()
                self._inflight[key] = fut
                owner = True
            else:
                fut = existing
                _M_COALESCED.inc()
        if not owner:
            return fut.result(), SOURCE_COALESCED
        # Disk fallback happens under the in-flight claim so concurrent
        # readers coalesce onto one disk read too.
        disk = self._disk_get(key)
        if disk is not None:
            with self._lock:
                self._admit_locked(key, disk)
                self._inflight.pop(key, None)
            _M_HITS.inc()
            _M_DISK_HITS.inc()
            fut.set_result(disk)
            return disk, SOURCE_STORE
        try:
            payload = _stored(compute())
        except BaseException as e:
            with self._lock:
                self._inflight.pop(key, None)
            fut.set_exception(e)
            raise
        with self._lock:
            self._admit_locked(key, payload)
            self._inflight.pop(key, None)
        _M_MISSES.inc()
        self._disk_put(key, payload)
        fut.set_result(payload)
        return payload, SOURCE_COMPUTED

    # ------------------------------------------------------------------
    def _admit_locked(self, key: str, payload: StoredPoint) -> None:
        """Insert under the held lock, LRU-evicting to the byte budget."""
        nbytes = payload.nbytes
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        if nbytes > self.max_bytes:
            return  # larger than the whole budget: serve pass-through
        while self._bytes + nbytes > self.max_bytes and self._entries:
            _, dropped = self._entries.popitem(last=False)
            self._bytes -= dropped.nbytes
            _M_EVICTIONS.inc()
        self._entries[key] = payload
        self._bytes += nbytes

    # ------------------------------------------------------------------
    # Durable tier.
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]
        return self.directory / f"entry_{digest}.json"

    def _disk_get(self, key: str) -> StoredPoint | None:
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None  # absent or unreadable: recompute
        try:
            return read_point(text, key)
        except ConfigError:
            _M_REJECTED.inc()  # torn, foreign or not canonical: never trust
            return None

    def _disk_put(self, key: str, payload: StoredPoint) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        _write_text_atomic(path, payload.entry_json(key))

    # ------------------------------------------------------------------
    # Checkpoint-directory ingestion (sweep -> serve round trip).
    # ------------------------------------------------------------------
    def ingest_checkpoint_dir(
        self, directory: str | Path, query: Query,
        sink: EventSink | None = None,
    ) -> int:
        """Warm the store from a ``repro sweep --checkpoint-dir``.

        The directory's manifest must match the query's identity the
        same way a resume would check it (name, backend, policy, base
        config); every point file then lands under its
        content-addressed key.  Returns the number of points ingested.
        A point file is read strictly (:func:`~repro.codesign.codec.
        read_point`) and must also belong to the query — its backend,
        file name and layer count; any other file is skipped, counted
        in ``store.rejected`` and reported as a ``checkpoint_corrupt``
        warning event into ``sink`` naming the file and the reason.
        """
        directory = Path(directory)
        mpath = directory / MANIFEST_NAME
        try:
            manifest = json.loads(mpath.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            raise ConfigError(
                f"unreadable sweep manifest {mpath}: {e}"
            ) from None
        identity = _manifest_identity(manifest)
        mismatches = [
            f"{field_}: checkpoint {identity.get(field_)!r} vs query "
            f"{expected!r}"
            for field_, expected in (
                ("version", CHECKPOINT_VERSION),
                ("name", query.network),
                ("backend", query.mode),
                ("hybrid", query.hybrid),
                ("variant", query.variant),
                ("config", query.config_dict),
            )
            if identity.get(field_) != expected
        ]
        if mismatches:
            raise ConfigError(
                f"checkpoint directory {directory} does not match the "
                f"query: " + "; ".join(mismatches)
            )
        ingested = 0
        for path in sorted(directory.glob("point_v*_l2mb*.json")):
            try:
                point = read_point(path.read_text(encoding="utf-8"))
                payload = point.payload()
                vlen, l2_mb = payload["vlen"], payload["l2_mb"]
                if payload["backend"] != query.mode:
                    raise ConfigError(
                        f"produced by backend {payload['backend']!r}, the "
                        f"query runs {query.mode!r}")
                if path.name != _point_path(directory, vlen, l2_mb).name:
                    raise ConfigError(
                        f"holds point ({vlen}, {l2_mb}), not the one its "
                        f"name says")
                if len(point.labels) != len(query.json_labels):
                    raise ConfigError(
                        f"has {len(point.labels) - 2} layers, the query "
                        f"{len(query.layers)}")
            except (OSError, ConfigError) as e:
                _M_REJECTED.inc()
                if sink is not None:
                    sink.emit(event("checkpoint_corrupt", level=LEVEL_WARNING,
                                    file=str(path), reason=str(e)))
                continue
            self.put(point_key(query, vlen, l2_mb), point)
            ingested += 1
        return ingested
