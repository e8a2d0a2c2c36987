"""Drive ``repro serve`` through its CLI and HTTP/NDJSON protocol.

Only the wire protocol is used: ``POST /v1/query`` answered by an
NDJSON event stream ending in ``query_result``, ``GET /v1/healthz`` and
the Prometheus text of ``GET /metrics``.
"""

from __future__ import annotations

import http.client
import json
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"
_LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")
_SAMPLE_RE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


class Server:
    """A ``repro serve --port 0`` subprocess; :meth:`stop` drains it."""

    def __init__(self, root: Path, env: dict[str, str],
                 spans: Path | None = None, timeout: float = 60.0) -> None:
        cmd = [sys.executable, str(LAUNCHER)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["serve", "--port", "0", "--workers", "2"]
        self.log: list[str] = []
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.port = 0
        deadline = time.monotonic() + timeout
        while not self.port:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("repro serve did not start:\n"
                                   + "".join(self.log[-20:]))
            match = _LISTEN_RE.search(line)
            if match:
                self.port = int(match.group(2))

    def _drain(self) -> None:
        assert self.proc.stderr is not None
        for raw in self.proc.stderr:
            line = raw.decode("utf-8", errors="replace")
            self.log.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (Linux ``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        if kb is None:
            raise RuntimeError("no VmHWM in /proc status")
        return int(kb.group(1)) / 1024.0

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (the CLI drains and exits), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=timeout)
        return int(self.proc.returncode)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


@dataclass
class Reply:
    """One query as the client saw it: the raw NDJSON body and the
    monotonic times of connect, first response byte and last byte."""

    start: float
    connected: float
    first_byte: float
    end: float
    status: int = 0
    body: bytes = b""
    error: str | None = None
    query_id: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def result_line(self) -> bytes:
        """The last NDJSON line with the query's id removed (equal for
        every answer to the same query); sets :attr:`query_id`."""
        first, _, rest = self.body.partition(b"\n")
        try:
            self.query_id = str(json.loads(first)["query_id"])
        except (ValueError, KeyError, TypeError):
            return rest
        last = self.body.rstrip(b"\n").rsplit(b"\n", 1)[-1]
        return last.replace(self.query_id.encode(), b"")

    def sweep(self) -> dict[str, Any]:
        """Decode the stream; the ``query_result`` sweep, or raise."""
        if self.status != 200:
            raise ValueError(f"HTTP {self.status}: {self.body[:200]!r}")
        events = [json.loads(line) for line in self.body.splitlines()
                  if line.strip()]
        if not events or events[-1].get("event") != "query_result":
            raise ValueError(f"stream ended without query_result: "
                             f"{events[-1] if events else None}")
        return dict(events[-1]["sweep"])


def query(port: int, body: bytes, timeout: float = 120.0) -> Reply:
    """POST one query and read its whole NDJSON stream (undecoded: the
    caller decodes outside the timed span)."""
    start = time.monotonic()
    connected = first_byte = start
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.connect()
        connected = time.monotonic()
        conn.request("POST", "/v1/query", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        first_byte = time.monotonic()
        data = resp.read()
        end = time.monotonic()
    except (OSError, http.client.HTTPException) as e:
        return Reply(start, connected, first_byte, time.monotonic(),
                     error=f"{type(e).__name__}: {e}")
    finally:
        conn.close()
    return Reply(start, connected, first_byte, end, resp.status, data)


def get(port: int, path: str, timeout: float = 30.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def scrape(port: int) -> dict[str, float]:
    """Unlabelled samples of ``GET /metrics`` (counters, gauges, and
    histogram ``_sum``/``_count``), keyed by exposition name."""
    status, body = get(port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered HTTP {status}")
    out: dict[str, float] = {}
    for line in body.decode("utf-8").splitlines():
        match = _SAMPLE_RE.match(line.strip())
        if match and not match.group(2):
            out[match.group(1)] = float(match.group(3))
    return out
