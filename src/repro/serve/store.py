"""The content-addressed result store behind ``repro serve``.

One entry per answered grid point, keyed by
:func:`repro.serve.protocol.point_key` (network hash x backend x grid
point) and holding the *checkpoint point schema verbatim* —
``{"version", "backend", "vlen", "l2_mb", "result"}``, exactly what
:mod:`repro.codesign.executor` writes under ``--checkpoint-dir`` — so
a sweep's checkpoint directory can be ingested as a warm cache
(:meth:`ResultStore.ingest_checkpoint_dir`) and a stored point restores
through the same validation path as a resume.

Consistency guarantees:

- **exactly-once compute** — :meth:`ResultStore.get_or_compute`
  coalesces concurrent callers of one key: the first runs the compute
  in its own thread, the rest block on its future and share the
  result; a failed compute propagates to every waiter and leaves the
  key absent (the next caller retries).
- **bounded memory** — entries are LRU-evicted once the resident
  payloads exceed ``max_bytes`` (sized by their canonical JSON text,
  the same bytes persistence writes).  An entry larger than the whole
  budget is stored nowhere and served pass-through.
- **durable tier** — with ``directory`` set, every ``put`` also
  persists the entry atomically (unique temp + fsync + rename, the
  checkpoint writer's discipline), eviction drops only the memory
  copy, and a ``get`` miss falls back to disk; a service killed
  mid-run therefore restarts warm, losing at most the point that was
  in flight.

Observability: the ``store.{hits,misses,coalesced,evictions,disk_hits}``
counters on the process-global :data:`repro.obs.METRICS` registry
(``GET /metrics``).  :meth:`ResultStore.snapshot` is the ``/v1/stats``
view: occupancy (``entries``, ``bytes``) copied under the store's lock
plus the registry's counter values, which are process-wide — the same
thing for the one store a served process runs.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.codesign.executor import (
    CHECKPOINT_VERSION,
    MANIFEST_NAME,
    _load_point,
    _manifest_identity,
    _write_json_atomic,
)
from repro.errors import ConfigError
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
_G_ENTRIES = METRICS.gauge("store.entries", "resident store entries")
_G_BYTES = METRICS.gauge("store.bytes", "resident store payload bytes")

#: The ``/v1/stats`` store keys read from the registry's counters.
_STORE_TOTALS = {
    "hits": _M_HITS, "misses": _M_MISSES, "coalesced": _M_COALESCED,
    "evictions": _M_EVICTIONS, "disk_hits": _M_DISK_HITS,
}


@dataclass
class _Entry:
    payload: dict[str, Any]
    nbytes: int = field(default=0)


def _payload_bytes(payload: dict[str, Any]) -> int:
    return len(json.dumps(payload).encode("utf-8"))


def _validate_point_payload(payload: Any) -> dict[str, Any]:
    """Schema-check one stored point (the checkpoint point schema)."""
    if not isinstance(payload, dict):
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
    return payload


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
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._inflight: dict[str, Future[dict[str, Any]]] = {}
        #: Resident payload bytes, the LRU's budget measure.
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

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, or ``None`` (counted)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                _M_HITS.inc()
                return entry.payload
        payload = self._disk_get(key)
        if payload is not None:
            with self._lock:
                self._admit_locked(key, payload)
            _M_HITS.inc()
            _M_DISK_HITS.inc()
            return payload
        _M_MISSES.inc()
        return None

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Insert (or refresh) one point payload under its key."""
        _validate_point_payload(payload)
        with self._lock:
            self._admit_locked(key, payload)
        self._disk_put(key, payload)

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], dict[str, Any]],
    ) -> tuple[dict[str, Any], str]:
        """Answer ``key`` from the store, or compute it exactly once.

        Returns ``(payload, source)`` where ``source`` is
        :data:`SOURCE_STORE` (cache hit), :data:`SOURCE_COMPUTED` (this
        caller ran ``compute``), or :data:`SOURCE_COALESCED` (another
        caller was already computing it; this one waited and shares the
        result).  N concurrent callers of one cold key run ``compute``
        exactly once.
        """
        owner = False
        fut: Future[dict[str, Any]]
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                _M_HITS.inc()
                return entry.payload, SOURCE_STORE
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
            payload = _validate_point_payload(compute())
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
    def _admit_locked(self, key: str, payload: dict[str, Any]) -> None:
        """Insert under the held lock, LRU-evicting to the byte budget."""
        nbytes = _payload_bytes(payload)
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        if nbytes > self.max_bytes:
            return  # larger than the whole budget: serve pass-through
        while self._bytes + nbytes > self.max_bytes and self._entries:
            _, dropped = self._entries.popitem(last=False)
            self._bytes -= dropped.nbytes
            _M_EVICTIONS.inc()
        self._entries[key] = _Entry(payload, nbytes)
        self._bytes += nbytes

    # ------------------------------------------------------------------
    # Durable tier.
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]
        return self.directory / f"entry_{digest}.json"

    def _disk_get(self, key: str) -> dict[str, Any] | None:
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            wrapped = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None  # absent or torn: recompute, never trust
        if not isinstance(wrapped, dict) or wrapped.get("key") != key:
            return None
        try:
            return _validate_point_payload(wrapped.get("point"))
        except ConfigError:
            return None

    def _disk_put(self, key: str, payload: dict[str, Any]) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        _write_json_atomic(path, {"key": key, "point": payload})

    # ------------------------------------------------------------------
    # Checkpoint-directory ingestion (sweep -> serve round trip).
    # ------------------------------------------------------------------
    def ingest_checkpoint_dir(
        self, directory: str | Path, query: Query
    ) -> int:
        """Warm the store from a ``repro sweep --checkpoint-dir``.

        The directory's manifest must match the query's identity the
        same way a resume would check it (name, backend, policy, base
        config); every readable point file then lands under its
        content-addressed key.  Returns the number of points ingested;
        torn or cross-backend files are skipped exactly as a resume
        would drop them.
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
                ("config", asdict(query.config)),
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
            result, reason = _load_point(path, query.mode)
            if result is None or reason is not None:
                continue
            payload = json.loads(path.read_text(encoding="utf-8"))
            vlen = int(payload["vlen"])
            l2_mb = int(payload["l2_mb"])
            self.put(point_key(query, vlen, l2_mb), payload)
            ingested += 1
        return ingested
