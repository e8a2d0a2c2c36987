"""Structured events and sinks (the run's machine-readable log).

Every noteworthy moment of a run — a sweep point finishing, a corrupt
checkpoint being dropped, a process pool degrading to serial — is one
:func:`event`: a flat JSON-able dict with an ``event`` kind, a
``level`` (``info``/``warning``) and a monotonically increasing ``seq``
per sink.  Producers emit to an :class:`EventSink`; the provided sinks
cover the needs of the CLI and tests:

- :class:`MemorySink` — collects events in a list (tests, adapters);
- :class:`JsonlSink` — appends one JSON line per event to a file,
  flushed per event so a killed run keeps everything emitted
  (:func:`read_jsonl` is its inverse);
- :class:`CallbackSink` — forwards each event to a callable;
- :class:`TeeSink` — fans one stream out to several sinks.

Events are observation-only and append-only; nothing in the simulator
reads them back.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ObsError

LEVEL_INFO = "info"
LEVEL_WARNING = "warning"


def event(kind: str, /, level: str = LEVEL_INFO, **payload: Any) -> dict:
    """Build one structured event (flat, JSON-serializable).

    ``kind`` is positional-only so that a payload may carry a field
    named ``kind`` too.
    """
    return {"event": kind, "level": level, **payload}


class EventSink:
    """Receiver of a run's event stream."""

    def __init__(self) -> None:
        self._seq = 0

    def emit(self, ev: dict) -> None:
        """Stamp the per-sink sequence number and deliver the event."""
        ev = dict(ev)
        ev["seq"] = self._seq
        self._seq += 1
        self._deliver(ev)

    def _deliver(self, ev: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (file handles); idempotent."""


class MemorySink(EventSink):
    """Events collected in memory, for tests and adapters."""

    def __init__(self) -> None:
        super().__init__()
        self.events: list[dict] = []

    def _deliver(self, ev: dict) -> None:
        self.events.append(ev)

    def of_kind(self, kind: str) -> list[dict]:
        return [e for e in self.events if e["event"] == kind]


class CallbackSink(EventSink):
    """Forwards every event to one callable."""

    def __init__(self, fn: Callable[[dict], None]) -> None:
        super().__init__()
        self._fn = fn

    def _deliver(self, ev: dict) -> None:
        self._fn(ev)


class JsonlSink(EventSink):
    """One JSON object per line, appended and flushed per event.

    The flush-per-event policy makes the file a reliable flight
    recorder: a sweep killed mid-run leaves every event it emitted on
    disk, ready for :func:`read_jsonl`.

    :meth:`close` is idempotent; emitting to a closed sink raises
    :class:`~repro.errors.ObsError` — a producer still holding the sink
    after its owner closed it is a lifecycle bug, and the builtin
    ``ValueError: I/O operation on closed file`` it would otherwise hit
    does not say whose file was closed or why.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def _deliver(self, ev: dict) -> None:
        if self._fh.closed:
            raise ObsError(
                f"emit to closed JsonlSink {self.path} (event "
                f"{ev.get('event')!r}); the sink was closed before this "
                f"producer finished"
            )
        self._fh.write(json.dumps(ev) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ScopedSink(EventSink):
    """Stamps fixed fields onto every event before forwarding.

    The serve layer's client-scoped sink: one shared producer (the
    service, the executor) emits unscoped events, and each client's
    ``ScopedSink(inner, query_id=..., client=...)`` tags its copy so an
    interleaved NDJSON stream — or a flight recorder shared by many
    concurrent queries — stays attributable.  Scope fields never
    overwrite a field the event already carries (an event's own
    ``event``/``level``/payload is the ground truth; the scope is
    context).
    """

    def __init__(self, inner: EventSink, **scope: Any) -> None:
        super().__init__()
        self.inner = inner
        self.scope = dict(scope)

    def _deliver(self, ev: dict) -> None:
        out = dict(ev)
        out.pop("seq", None)  # the inner sink keeps its own numbering
        for k, v in self.scope.items():
            out.setdefault(k, v)
        self.inner.emit(out)

    def close(self) -> None:
        """Closing a scope does *not* close the shared inner sink —
        many scopes may be writing through it."""


class TeeSink(EventSink):
    """Fans one event stream out to several sinks."""

    def __init__(self, *sinks: EventSink) -> None:
        super().__init__()
        self.sinks = tuple(sinks)

    def _deliver(self, ev: dict) -> None:
        for s in self.sinks:
            # Re-emit so each sink keeps its own seq numbering.
            inner = dict(ev)
            inner.pop("seq", None)
            s.emit(inner)

    def close(self) -> None:
        for s in self.sinks:
            s.close()


def read_jsonl(path: str | Path) -> list[dict]:
    """Read a :class:`JsonlSink` file back into a list of events.

    A trailing torn line (the run was killed mid-write) is dropped
    rather than raised, matching the checkpoint loader's treatment of
    torn files.
    """
    out: list[dict] = []
    text = Path(path).read_text(encoding="utf-8")
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            out.append(json.loads(line))
        except ValueError:
            break
    return out


def warnings_in(events: Iterable[dict]) -> Iterator[dict]:
    """The warning-level events of a stream."""
    return (e for e in events if e.get("level") == LEVEL_WARNING)
