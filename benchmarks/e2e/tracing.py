"""Span recording for the benchmark's traced runs.

The benchmark never edits the program to trace it.  It wraps public
functions *where they are looked up* -- ``repro.nets.inference.
stats_from_model`` is the name ``record_inference`` calls, so patching
that module attribute puts a span around every call -- and opens its own
spans around the calls it makes.  The server process installs the same
wrappers through ``serve_launcher.py``.

Spans live in memory (name, start, end, parent, thread, query id) and
are written as JSONL when the run ends.  A span's self time is its
duration minus the time its child spans cover.  A wrapped function
that no longer exists is reported, never fatal: the metrics that need
it read ``null``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: (module, attribute path, span name).  The attribute is patched in
#: that module's namespace, i.e. where the calling code looks it up.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.codesign.executor", "record_inference", "nets.record_inference"),
    ("repro.codesign.executor", "profile_network", "codesign.profile_network"),
    ("repro.codesign.fastpath", "NetworkProfile.evaluate", "codesign.profile_eval"),
    ("repro.serve.service", "evaluate_column", "codesign.evaluate_column"),
    ("repro.nets.inference", "layer_phase_models", "nets.layer_phase_models"),
    ("repro.nets.inference", "NetworkRecording.evaluate", "model.replay"),
    ("repro.nets.inference", "stats_from_model", "model.stats_from_model"),
    ("repro.model.traffic", "CondensedTraffic.from_phases", "model.condense"),
    ("repro.nets.inference", "maxpool_model", "model.aux_model"),
    ("repro.nets.inference", "shortcut_model", "model.aux_model"),
    ("repro.model.layer_model", "gemm_model", "model.gemm_model"),
    ("repro.model.layer_model", "im2col_model_for", "model.im2col_model"),
    ("repro.model.layer_model", "winograd_layer_model", "model.winograd_layer_model"),
    ("repro.model.layer_model", "direct1x1_model", "model.direct1x1_model"),
    ("repro.model.winograd_model", "f6x3_transforms", "winograd.f6x3_transforms"),
    ("repro.kernels.transforms", "f6x3_transforms", "winograd.f6x3_transforms"),
    ("repro.kernels.drivers", "filter_transform", "kernels.filter_transform"),
    ("repro.kernels.drivers", "input_transform", "kernels.input_transform"),
    ("repro.kernels.drivers", "tuple_multiplication", "kernels.tuple_multiplication"),
    ("repro.kernels.drivers", "output_transform", "kernels.output_transform"),
    ("repro.kernels.drivers", "im2col_kernel", "kernels.im2col"),
    ("repro.kernels.drivers", "gemm_kernel", "kernels.gemm"),
    ("repro.kernels.direct", "direct1x1_kernel", "kernels.direct1x1"),
    ("repro.serve.protocol", "Query.from_payload", "serve.query_parse"),
    ("repro.serve.store", "ResultStore.get", "serve.store_lookup"),
    ("repro.serve.store", "ResultStore.get_or_compute", "serve.store_lookup"),
    ("repro.serve.service", "encode_event", "serve.encode_event"),
)

#: Span names the wrappers produce (the rest are the benchmark's own).
WRAPPED_NAMES = frozenset(name for _, _, name in TARGETS)

#: Work counts read off a wrapped call's result into its span.
_RESULT_COUNTS: dict[str, Callable[[Any], int]] = {
    "model.condense": lambda r: int(getattr(r, "n_classes", 0)),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    query_id: str | None = None
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans, one stack per thread.  Span ids count up from
    ``first_id``; recorders in different processes use different bases
    so their spans can be merged."""

    def __init__(self, first_id: int = 0) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = first_id
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, query_id: str | None = None) -> Span:
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        sp = Span(sid, name, time.monotonic(), 0.0,
                  stack[-1] if stack else None, threading.get_ident(), query_id)
        stack.append(sid)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.monotonic()
        self._stack().pop()
        with self._lock:
            self.spans.append(sp)

    @contextmanager
    def span(self, name: str, query_id: str | None = None) -> Iterator[Span]:
        sp = self.open(name, query_id)
        try:
            yield sp
        finally:
            self.close(sp)

    def add(self, name: str, start: float, end: float,
            parent: Span | None = None, query_id: str | None = None) -> Span:
        """Record an already-timed span (client phases measured inline)."""
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            sp = Span(sid, name, start, end, parent.id if parent else None,
                      threading.get_ident(), query_id)
            self.spans.append(sp)
        return sp

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        hook = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sp = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    sp.count = hook(result)
            finally:
                self.close(sp)
            return result

        return traced

    def install(self, targets: Iterable[tuple[str, str, str]] = TARGETS) -> None:
        """Patch every target; record the ones that no longer exist."""
        found: set[str] = set()
        absent: set[str] = set()
        for module, path, name in targets:
            try:
                owner: Any = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                absent.add(name)
                continue
            if isinstance(original, classmethod):
                patched: Any = classmethod(self.wrap(name, original.__func__))
            elif isinstance(original, staticmethod):
                patched = staticmethod(self.wrap(name, original.__func__))
            elif callable(original):
                patched = self.wrap(name, original)
            else:
                absent.add(name)
                continue
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))
            found.add(name)
        self.missing = sorted(absent - found)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def write_jsonl(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")
            fh.write(json.dumps({"missing": self.missing}) + "\n")


def read_jsonl(path: str | Path) -> tuple[list[Span], list[str]]:
    """Spans plus the missing wrapper targets recorded in a span file."""
    spans: list[Span] = []
    missing: list[str] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        if "name" in rec:
            spans.append(Span(**rec))
        else:
            missing = list(rec.get("missing", []))
    return spans, missing


def calibrate_overhead(samples: int = 20000) -> float:
    """Seconds a wrapper adds to one call (wrapped minus bare no-op)."""
    rec = SpanRecorder()

    def noop() -> None:
        return None

    wrapped = rec.wrap("calibrate", noop)
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        wrapped()
    traced = time.perf_counter() - t0
    return max(0.0, (traced - bare) / samples)


# ----------------------------------------------------------------------
# Span arithmetic.
# ----------------------------------------------------------------------
def in_window(spans: Iterable[Span], t0: float, t1: float) -> list[Span]:
    """Spans that started inside ``[t0, t1]``."""
    return [sp for sp in spans if t0 <= sp.start <= t1]


def _children(spans: list[Span]) -> dict[int | None, list[Span]]:
    kids: dict[int | None, list[Span]] = defaultdict(list)
    for sp in spans:
        kids[sp.parent].append(sp)
    return kids


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: duration minus the union of its children's spans."""
    kids = _children(spans)
    out = {}
    for sp in spans:
        covered = 0.0
        end = float("-inf")
        for c in sorted(kids.get(sp.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, end, sp.start), min(c.end, sp.end)
            if hi > lo:
                covered += hi - lo
            end = max(end, c.end)
        out[sp.id] = sp.duration - covered
    return out


def _ancestors(spans: list[Span]) -> Iterator[tuple[Span, set[str]]]:
    by_id = {sp.id: sp for sp in spans}
    for sp in spans:
        names: set[str] = set()
        parent = sp.parent
        while parent is not None and parent in by_id:
            names.add(by_id[parent].name)
            parent = by_id[parent].parent
        yield sp, names


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``busy`` seconds (outermost
    occurrences only, so recursion is not double counted), ``self``
    seconds and the summed result ``count``."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "busy": 0.0, "self": 0.0, "count": 0.0})
    for sp, above in _ancestors(spans):
        entry = out[sp.name]
        entry["calls"] += 1
        entry["self"] += selfs[sp.id]
        entry["count"] += sp.count
        if sp.name not in above:
            entry["busy"] += sp.duration
    return dict(out)
