"""Co-design-as-a-service: the async query front-end over the sweep.

The paper's study answers one (network x VLEN x L2) grid for one user;
the production framing is many concurrent clients submitting custom
darknet ``.cfg`` queries, with hot configurations answered from cache
and cold ones scheduled.  This package provides that serving loop,
stdlib-only:

- :mod:`repro.serve.protocol` — the query schema (named network or
  darknet cfg text, VLEN/L2 grid, backend mode), the content address
  that keys results (network hash x backend x grid point), NDJSON
  framing, and the blocking client used by ``repro query``;
- :mod:`repro.codesign.codec` (shared with the sweep's checkpoint
  resume) — a stored point's form: its canonical JSON text cut at the label slots, spliced under each query's labels, and
  the strict reader that accepts a point from disk only as its own
  canonical encoding;
- :mod:`repro.serve.store` — the content-addressed result store: a
  thread-safe LRU with a byte budget, exactly-once get-or-compute
  coalescing, optional disk persistence, and ingestion of
  ``repro sweep --checkpoint-dir`` directories (the store speaks the
  checkpoint JSON schema verbatim);
- :mod:`repro.serve.service` — the asyncio service: per-query NDJSON
  event streams (:mod:`repro.obs` events are the wire format),
  in-flight point coalescing across clients, a bounded worker pool
  driving :func:`repro.codesign.executor.evaluate_column`, the HTTP
  front-end (``repro serve``) with ``GET /metrics`` Prometheus
  exposition, per-query trace trees and a JSONL access log, and
  graceful drain-on-shutdown;
- :mod:`repro.serve.loadtest` — the ``repro loadtest`` harness:
  closed/open-loop asyncio client fleets, JSON reports with
  server-side (``/metrics`` histogram) and client-side latency
  percentiles, hit-rate trajectories, exactly-once verification, and
  a saturation sweep over client counts.

Results served from the store are bit-identical to a direct
:func:`repro.codesign.codesign_sweep` call: a point is stored as the
same shortest-repr JSON a sweep checkpoint holds, which preserves every
float exactly, and a hit splices those bytes into the answer.
"""

from repro.serve.protocol import (
    PROTOCOL_VERSION,
    Query,
    iter_ndjson,
    network_hash,
    point_key,
    query_identity,
    stream_query,
)
from repro.serve.loadtest import (
    RequestOutcome,
    fetch_metrics,
    fetch_stats,
    render_report_text,
    run_loadtest,
    run_saturation,
)
from repro.serve.service import CodesignService, ServeServer
from repro.serve.store import ResultStore

__all__ = [
    "PROTOCOL_VERSION",
    "Query",
    "query_identity",
    "network_hash",
    "point_key",
    "iter_ndjson",
    "stream_query",
    "ResultStore",
    "CodesignService",
    "ServeServer",
    "RequestOutcome",
    "run_loadtest",
    "run_saturation",
    "render_report_text",
    "fetch_metrics",
    "fetch_stats",
]
