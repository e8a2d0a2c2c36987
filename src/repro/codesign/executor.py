"""Parallel, checkpointable executor for the co-design sweep.

The paper's headline artifacts (Figures 3/4, Tables 1/2) each sweep a
(vector length x L2 size) grid — 20 points per network on the paper's
grids, far more for the larger co-design studies this repo grows
toward.  Every point is independent, so this module fans the grid out
over a :class:`concurrent.futures.ProcessPoolExecutor` and adds the
properties a long sweep needs in production:

- **checkpoint/resume** — with ``checkpoint_dir`` set, every finished
  point is written as one JSON file (atomically, via a temp file and
  ``os.replace``); re-running an interrupted sweep with the same
  directory restores finished points instead of recomputing them.  A
  manifest pins the run's identity (network, policy, variant, base
  configuration, *and backend*) so a directory can never silently mix
  results from different setups — in particular, fast- and
  exact-backend points never share a directory.  The manifest's
  ``run`` section additionally records the last run's telemetry
  (dropped corrupt checkpoints, pool degradation); it is informational
  and excluded from the identity check.
- **observability** — every noteworthy moment flows through one
  structured event layer (:mod:`repro.obs.events`): ``sweep_start``,
  per-point ``point_finished``/``point_restored`` ticks (with elapsed
  and ETA), warning-level ``checkpoint_corrupt`` and ``pool_degraded``
  events, and a closing ``sweep_end`` summary.  The ``on_progress``
  callback is a *rendering* of that stream — each tick event is also
  delivered as a :class:`SweepProgress` — and warning events are
  additionally raised as Python :class:`RuntimeWarning`\\ s so a plain
  CLI run is never silent about degradation or dropped data.  When an
  ambient tracer is installed (:func:`repro.obs.tracing`), the sweep
  records a ``run_sweep`` span and worker subtraces travel back with
  each result and are grafted into the parent trace; worker counter
  deltas merge into the process-global registry the same way.

The unit of work is a VLEN *column*, which amortizes per-VLEN state
over the whole L2 axis: each column is recorded once
(:func:`~repro.nets.inference.record_inference`; the phase models
depend on the configuration only through the vector length) and the
recording is evaluated per L2 size under the backend's (``mode``) L2
criterion — the exact backend's is bit-identical to a fresh
:func:`~repro.nets.inference.simulate_inference` call at every point,
the fast backend's is the sharp Mattson threshold.  Every checkpoint
records which backend produced it.

Results are bit-identical between the serial and parallel paths: each
point is evaluated by the same pure record/replay functions and
travels back to the parent either in-process or via
pickle, neither of which perturbs a float.  Checkpointed points
round-trip through JSON, which Python serializes with shortest-repr
floats, so restored grids are bit-identical too.  Instrumentation is
observation-only and never feeds back into a result.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings as _warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

# profile_network: a former name of record_inference, still resolvable
# here (see repro.codesign.fastpath).
from repro.codesign.fastpath import profile_network  # noqa: F401
from repro.codesign.sweep import BACKEND_EXACT, BACKENDS, SweepResult
from repro.errors import ConfigError
from repro.kernels.tuple_mult import SLIDEUP
from repro.model.layer_model import NetworkResult
from repro.nets.inference import record_inference
from repro.nets.layers import LayerSpec
from repro.obs import (
    COUNTERS,
    LEVEL_WARNING,
    BenchRecorder,
    EventSink,
    Span,
    Tracer,
    bench_key,
    current_tracer,
    event,
    span,
    tracing,
)
from repro.sim.system import SystemConfig

#: Checkpoint schema version; bumped on incompatible layout changes
#: (v2 added backend provenance to the manifest and every point).
CHECKPOINT_VERSION = 2

#: Manifest file name inside a checkpoint directory.
MANIFEST_NAME = "manifest.json"

#: Manifest section holding per-run telemetry (dropped checkpoints,
#: degradation); informational, excluded from the identity check that
#: guards resume.
MANIFEST_RUN_KEY = "run"


@dataclass(frozen=True)
class SweepProgress:
    """One progress tick of a running sweep.

    Attributes:
        done: points finished so far (including checkpoint restores).
        total: points in the grid.
        vlen/l2_mb: the point that just finished.
        point_seconds: wall time this point took (0 for restores).
        elapsed_seconds: wall time since the sweep started.
        eta_seconds: estimated remaining wall time, extrapolated from
            the wall time spent *computing* points (checkpoint-restore
            time is excluded from the base); ``None`` until at least
            one point has actually computed — rendered as "eta —".
        from_checkpoint: True when the point was restored, not run.
    """

    done: int
    total: int
    vlen: int
    l2_mb: int
    point_seconds: float
    elapsed_seconds: float
    eta_seconds: float | None
    from_checkpoint: bool

    @classmethod
    def from_event(cls, ev: dict) -> "SweepProgress":
        """Build a tick from a ``point_finished``/``point_restored``
        event — the ticker is a rendering of the event stream."""
        return cls(
            done=ev["done"], total=ev["total"],
            vlen=ev["vlen"], l2_mb=ev["l2_mb"],
            point_seconds=ev["point_seconds"],
            elapsed_seconds=ev["elapsed_seconds"],
            eta_seconds=ev["eta_seconds"],
            from_checkpoint=ev["event"] == "point_restored",
        )

    def describe(self) -> str:
        """One-line ticker text (the CLI's ``--progress`` output)."""
        src = "restored" if self.from_checkpoint else f"{self.point_seconds:.2f}s"
        eta = ("—" if self.eta_seconds is None
               else f"{self.eta_seconds:.1f}s")
        return (
            f"[{self.done}/{self.total}] {self.vlen}b/{self.l2_mb}MB "
            f"{src}  elapsed {self.elapsed_seconds:.1f}s  "
            f"eta {eta}"
        )


ProgressCallback = Callable[[SweepProgress], None]


class _SweepTelemetry:
    """The sweep's single observability funnel.

    Every progress tick, warning and summary is built here as a
    structured event, delivered to the optional sink, and — for ticks —
    re-rendered as a :class:`SweepProgress` for the legacy callback.
    Warning-level events are also raised as :class:`RuntimeWarning` so
    degradation is visible even with no sink attached.
    """

    def __init__(
        self,
        total: int,
        sink: EventSink | None,
        on_progress: ProgressCallback | None,
    ) -> None:
        self.total = total
        self.sink = sink
        self.on_progress = on_progress
        self.done = 0
        self.computed = 0
        self.restored = 0
        self.dropped_checkpoints = 0
        self.degraded = False
        self.start = time.perf_counter()
        self._compute_start: float | None = None

    # ------------------------------------------------------------------
    def _emit(self, ev: dict) -> None:
        if self.sink is not None:
            self.sink.emit(ev)
        if ev.get("level") == LEVEL_WARNING:
            detail = ev.get("reason", "")
            _warnings.warn(
                f"sweep {ev['event']}: {detail}", RuntimeWarning,
                stacklevel=4,
            )

    def _eta_seconds(self) -> float | None:
        """Remaining wall time, from computed points only.

        ``None`` until a point has actually computed: a resume that has
        so far only restored checkpoints has no computation to
        extrapolate from (the old ticker reported a confident
        ``eta 0.0s`` there).  The base excludes the restore phase's
        wall time, so a long restore cannot dilute the estimate.
        """
        if not self.computed or self._compute_start is None:
            return None
        compute_elapsed = time.perf_counter() - self._compute_start
        remaining = self.total - self.done
        return compute_elapsed / self.computed * remaining

    # ------------------------------------------------------------------
    def sweep_start(self, name: str, backend: str, workers: int) -> None:
        self._emit(event(
            "sweep_start", name=name, backend=backend, workers=workers,
            total=self.total,
        ))

    def begin_compute(self) -> None:
        """Mark the restore phase over; the ETA base starts here."""
        if self._compute_start is None:
            self._compute_start = time.perf_counter()

    def _tick(self, kind: str, vlen: int, l2_mb: int, secs: float) -> None:
        ev = event(
            kind, vlen=vlen, l2_mb=l2_mb,
            done=self.done, total=self.total, point_seconds=secs,
            elapsed_seconds=time.perf_counter() - self.start,
            eta_seconds=self._eta_seconds(),
        )
        self._emit(ev)
        if self.on_progress is not None:
            self.on_progress(SweepProgress.from_event(ev))

    def point_restored(self, vlen: int, l2_mb: int) -> None:
        self.done += 1
        self.restored += 1
        self._tick("point_restored", vlen, l2_mb, 0.0)

    def point_finished(self, vlen: int, l2_mb: int, secs: float) -> None:
        self.done += 1
        self.computed += 1
        self._tick("point_finished", vlen, l2_mb, secs)

    def checkpoint_corrupt(self, path: Path, reason: str) -> None:
        self.dropped_checkpoints += 1
        self._emit(event(
            "checkpoint_corrupt", level=LEVEL_WARNING,
            file=str(path), reason=f"{reason} (recomputing the point)",
        ))

    def pool_degraded(self, reason: str) -> None:
        self.degraded = True
        self._emit(event(
            "pool_degraded", level=LEVEL_WARNING,
            reason=f"{reason}; continuing serially in-process",
        ))

    def sweep_end(self) -> dict:
        """Emit the closing summary; returns the run-info block the
        checkpoint manifest records."""
        run_info = {
            "computed": self.computed,
            "restored": self.restored,
            "dropped_checkpoints": self.dropped_checkpoints,
            "degraded": self.degraded,
        }
        self._emit(event(
            "sweep_end",
            elapsed_seconds=time.perf_counter() - self.start,
            **run_info,
        ))
        return run_info


def _evaluate_vlen(
    name: str,
    layers: list[LayerSpec],
    vlen: int,
    l2_mbs: tuple[int, ...],
    hybrid: bool,
    variant: str,
    base_config: SystemConfig,
    mode: str,
    collect: bool = False,
    span_attrs: Mapping[str, Any] | None = None,
) -> tuple[list[tuple[int, NetworkResult, float]], dict]:
    """Evaluate one VLEN column of the grid under ``mode``'s L2 criterion.

    The layer phase models depend on the configuration only through
    the vector length, so one recording pass
    (:func:`~repro.nets.inference.record_inference`) answers the whole
    L2 axis; each point evaluates the recording (under ``exact``,
    bit-identical to a fresh ``simulate_inference`` call at that
    point).  The recording pass's wall time is attributed to the
    column's first point so per-point seconds still sum to the column's
    true cost.  With ``collect`` (the pooled path), the column's span
    subtree and counter delta are captured and returned picklable, so
    the parent can graft them into its trace and registry; the serial
    path leaves it False and records into the ambient tracer directly.
    """
    def column() -> list[tuple[int, NetworkResult, float]]:
        t0 = time.perf_counter()
        cfg = base_config.with_(vlen_bits=vlen)
        recording = record_inference(
            name, layers, cfg, hybrid=hybrid, variant=variant
        )
        record_secs = time.perf_counter() - t0
        out: list[tuple[int, NetworkResult, float]] = []
        for i, l2_mb in enumerate(l2_mbs):
            t1 = time.perf_counter()
            result = recording.evaluate(l2_mb, mode)
            secs = time.perf_counter() - t1
            if i == 0:
                secs += record_secs
            out.append((l2_mb, result, secs))
        return out

    if not collect:
        return column(), {}
    local = Tracer()
    with COUNTERS.capture() as cap, tracing(local), local.span(
        "sweep_worker", vlen=vlen, l2_mbs=list(l2_mbs), **dict(span_attrs or {})
    ):
        out = column()
    return out, {"span": local.root.to_dict(), "counters": cap.delta()}


def evaluate_column(
    name: str,
    layers: list[LayerSpec],
    vlen: int,
    l2_mbs: Sequence[int],
    hybrid: bool = True,
    variant: str = SLIDEUP,
    base_config: SystemConfig | None = None,
    mode: str = BACKEND_EXACT,
    collect: bool = False,
    span_attrs: Mapping[str, Any] | None = None,
) -> tuple[list[tuple[int, NetworkResult, float]], dict]:
    """Evaluate one VLEN column of the co-design grid — the executor's
    reusable unit of work.

    This is the API the sweep pool *and* the serve layer
    (:mod:`repro.serve`) schedule: one call amortizes the per-VLEN
    recording over every requested L2 size and returns
    ``([(l2_mb, result, seconds), ...], extras)``, where ``extras``
    carries the picklable span/counter capture when ``collect`` is set
    (see :func:`_evaluate_vlen`).  Results are bit-identical to the same
    point evaluated alone, however the L2 axis was batched (and, under
    ``exact``, to a fresh
    :func:`~repro.nets.inference.simulate_inference`).
    """
    if mode not in BACKENDS:
        raise ConfigError(
            f"unknown sweep mode {mode!r} (expected one of {BACKENDS})"
        )
    if not l2_mbs:
        raise ConfigError("evaluate_column needs at least one L2 size")
    base = base_config if base_config is not None else SystemConfig()
    return _evaluate_vlen(
        name, layers, int(vlen), tuple(int(l) for l in l2_mbs),
        hybrid, variant, base, mode, collect, span_attrs,
    )


def evaluate_point(
    name: str,
    layers: list[LayerSpec],
    vlen: int,
    l2_mb: int,
    hybrid: bool = True,
    variant: str = SLIDEUP,
    base_config: SystemConfig | None = None,
    mode: str = BACKEND_EXACT,
) -> NetworkResult:
    """Evaluate a single (VLEN, L2) grid point.

    A one-point :func:`evaluate_column`; bit-identical to the same
    point of any sweep over a grid containing it.
    """
    column, _ = evaluate_column(
        name, layers, vlen, (l2_mb,), hybrid=hybrid, variant=variant,
        base_config=base_config, mode=mode,
    )
    (_, result, _), = column
    return result


# ----------------------------------------------------------------------
# Checkpoint directory layout.
# ----------------------------------------------------------------------
def _manifest_payload(
    name: str, hybrid: bool, variant: str, base_config: SystemConfig,
    backend: str,
) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "name": name,
        "backend": backend,
        "hybrid": hybrid,
        "variant": variant,
        "config": asdict(base_config),
    }


def _manifest_identity(payload: dict) -> dict:
    """The identity-pinning part of a manifest (run telemetry, which
    legitimately differs between runs of the same sweep, stripped)."""
    return {k: v for k, v in payload.items() if k != MANIFEST_RUN_KEY}


def _point_path(directory: Path, vlen: int, l2_mb: int) -> Path:
    return directory / f"point_v{vlen}_l2mb{l2_mb}.json"


def _materialize_json(path: Path, payload: dict) -> str:
    """Write ``payload`` to a *uniquely named* sibling temp file,
    flushed and fsynced; returns the temp path, ready to publish.

    The unique name (``tempfile.mkstemp``) is what makes concurrent
    writers safe: two processes serving or resuming the same checkpoint
    directory each write their own temp file, so one can never tear or
    redirect the other's in-flight bytes (a fixed sibling ``.tmp`` name
    let writer B's content be published under writer A's ``os.replace``
    — a torn or wrong-point file).  The fsync makes the rename durable:
    after ``os.replace``, a crash can lose the *write*, never publish
    half of one.
    """
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return tmp


def _write_json_atomic(path: Path, payload: dict) -> None:
    """Atomically (re)write ``path`` — safe against kills *and*
    concurrent writers.

    A kill mid-write leaves at most a stray uniquely-named ``.tmp``
    file, never half a checkpoint (torn files are treated as absent on
    resume); concurrent writers each publish a complete file and the
    last ``os.replace`` wins.
    """
    tmp = _materialize_json(path, payload)
    try:
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _create_json_excl(path: Path, payload: dict) -> bool:
    """Atomically create ``path`` with ``payload`` only if it does not
    exist yet (``O_EXCL`` semantics with full-content publication).

    Returns ``False`` when another writer won the race — and because
    publication is a hard link of an already-fsynced temp file, the
    winner's file is complete the instant it is observable; the loser
    can immediately read and validate it.
    """
    tmp = _materialize_json(path, payload)
    try:
        os.link(tmp, path)
    except FileExistsError:
        return False
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass
    return True


def _open_checkpoint_dir(
    directory: Path, manifest: dict
) -> None:
    """Create or validate a checkpoint directory for this sweep.

    Creation is race-free: the manifest is published with ``O_EXCL``
    semantics (:func:`_create_json_excl`), so two sweeps started
    concurrently in one fresh directory cannot both believe they
    created it — exactly one publishes, the other re-validates the
    winner's manifest as if it had been there all along (the old
    ``exists()``-then-write sequence was a TOCTOU: both writers saw no
    manifest and silently proceeded, even with *different* identities).
    """
    directory.mkdir(parents=True, exist_ok=True)
    mpath = directory / MANIFEST_NAME
    if not mpath.exists() and _create_json_excl(mpath, manifest):
        return
    try:
        existing = json.loads(mpath.read_text())
    except (OSError, ValueError) as e:
        raise ConfigError(
            f"unreadable sweep manifest {mpath}: {e}"
        ) from None
    if _manifest_identity(existing) != manifest:
        raise ConfigError(
            f"checkpoint directory {directory} belongs to a different "
            f"sweep (manifest mismatch); use a fresh directory"
        )


def _load_point(
    path: Path, backend: str
) -> tuple[NetworkResult | None, str | None]:
    """Restore one checkpointed point.

    Returns ``(result, None)`` on success, ``(None, None)`` when the
    file simply does not exist, and ``(None, reason)`` when a file *was*
    there but had to be dropped — torn, unreadable, from an older
    schema, or produced by a different backend (the manifest already
    hard-rejects cross-backend directories; this is the per-file belt
    to that suspender).  Dropped files are never silent: the executor
    turns every reason into a ``checkpoint_corrupt`` warning event and
    counts it in the manifest's run section.
    """
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None, None
    except OSError as e:
        return None, f"unreadable: {e}"
    try:
        payload = json.loads(text)
    except ValueError as e:
        return None, f"invalid JSON: {e}"
    if not isinstance(payload, dict):
        return None, "payload is not a JSON object"
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        return None, (
            f"checkpoint schema v{version!r} (this executor writes "
            f"v{CHECKPOINT_VERSION})"
        )
    point_backend = payload.get("backend")
    if point_backend != backend:
        return None, (
            f"produced by backend {point_backend!r}, this sweep runs "
            f"{backend!r}"
        )
    try:
        return NetworkResult.from_dict(payload["result"]), None
    except (ValueError, KeyError, TypeError) as e:
        return None, f"malformed result payload ({type(e).__name__}: {e})"


def _save_point(
    path: Path, vlen: int, l2_mb: int, result: NetworkResult, backend: str
) -> None:
    _write_json_atomic(path, {
        "version": CHECKPOINT_VERSION,
        "backend": backend,
        "vlen": vlen,
        "l2_mb": l2_mb,
        "result": result.to_dict(),
    })


# ----------------------------------------------------------------------
# The executor.
# ----------------------------------------------------------------------
def run_sweep(
    name: str,
    layers: list[LayerSpec],
    vlens: Sequence[int],
    l2_mbs: Sequence[int],
    hybrid: bool = True,
    variant: str = SLIDEUP,
    base_config: SystemConfig | None = None,
    workers: int = 1,
    checkpoint_dir: str | Path | None = None,
    on_progress: ProgressCallback | None = None,
    mode: str = BACKEND_EXACT,
    sink: EventSink | None = None,
    recorder: BenchRecorder | None = None,
) -> SweepResult:
    """Run a network across the co-design grid (see
    :func:`repro.codesign.sweep.codesign_sweep` for the argument
    contract — that wrapper is the public entry point).

    ``recorder`` feeds the regression observatory: every point's
    simulated cycle count is recorded under its canonical bench key,
    with per-point wall time for *computed* points only (a checkpoint
    restore measures the disk, not the sweep, so it contributes cycles
    but no wall sample).
    """
    if mode not in BACKENDS:
        raise ConfigError(
            f"unknown sweep mode {mode!r} (expected one of {BACKENDS}; "
            f"'validate' is served by validate_codesign_sweep)"
        )
    if not vlens or not l2_mbs:
        raise ConfigError("sweep grids must be non-empty")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    base = base_config if base_config is not None else SystemConfig()
    grid_vlens = tuple(sorted(set(int(v) for v in vlens)))
    grid_l2s = tuple(sorted(set(int(l) for l in l2_mbs)))
    points = [(v, l) for v in grid_vlens for l in grid_l2s]
    total = len(points)

    directory: Path | None = None
    manifest: dict = {}
    if checkpoint_dir is not None:
        directory = Path(checkpoint_dir)
        manifest = _manifest_payload(name, hybrid, variant, base, mode)
        _open_checkpoint_dir(directory, manifest)

    telemetry = _SweepTelemetry(total=total, sink=sink,
                                on_progress=on_progress)
    results: dict[tuple[int, int], NetworkResult] = {}

    with span("run_sweep", network=name, backend=mode,
              workers=workers, total_points=total):
        telemetry.sweep_start(name, mode, workers)

        # Phase 1: restore finished points from the checkpoint directory.
        todo: list[tuple[int, int]] = []
        for v, l in points:
            restored: NetworkResult | None = None
            if directory is not None:
                path = _point_path(directory, v, l)
                restored, corrupt_reason = _load_point(path, mode)
                if corrupt_reason is not None:
                    telemetry.checkpoint_corrupt(path, corrupt_reason)
            if restored is not None:
                results[(v, l)] = restored
                if recorder is not None:
                    recorder.add(bench_key(name, v, l), restored.cycles)
                telemetry.point_restored(v, l)
            else:
                todo.append((v, l))

        def absorb(extras: dict) -> None:
            """Merge a pooled worker's trace/counters into this process."""
            if extras.get("counters"):
                COUNTERS.merge(extras["counters"])
            tracer = current_tracer()
            if tracer is not None and extras.get("span"):
                tracer.attach(Span.from_dict(extras["span"]))

        def finish(v: int, l: int, result: NetworkResult, secs: float) -> None:
            results[(v, l)] = result
            if recorder is not None:
                recorder.add(bench_key(name, v, l), result.cycles,
                             wall_seconds=secs)
            if directory is not None:
                _save_point(_point_path(directory, v, l), v, l, result, mode)
            telemetry.point_finished(v, l, secs)

        # Phase 2: evaluate the remaining work, pooled or serial.  A
        # pool that cannot actually run (fork blocked, workers killed)
        # degrades to the serial path for whatever is still missing —
        # loudly: the degradation is a warning event, a RuntimeWarning,
        # and a ``degraded`` flag on the result and manifest.  The unit
        # of work is one VLEN column: recorded once, evaluated per L2
        # size under the backend's criterion.
        if todo:
            telemetry.begin_compute()
        collect = current_tracer() is not None
        columns: dict[int, list[int]] = {}
        for v, l in todo:
            columns.setdefault(v, []).append(l)
        pool, pool_error = _make_pool(workers, len(columns))
        if pool_error is not None:
            telemetry.pool_degraded(pool_error)
        if pool is not None:
            try:
                with pool:
                    futures = {
                        pool.submit(
                            _evaluate_vlen, name, layers, v,
                            tuple(l2s), hybrid, variant, base, mode, collect,
                        ): v
                        for v, l2s in columns.items()
                    }
                    pending = set(futures)
                    while pending:
                        finished, pending = wait(
                            pending, return_when=FIRST_COMPLETED
                        )
                        for fut in finished:
                            v = futures[fut]
                            column, extras = fut.result()
                            absorb(extras)
                            for l, result, secs in column:
                                finish(v, l, result, secs)
            except (OSError, BrokenProcessPool) as e:
                telemetry.pool_degraded(
                    f"process pool broke ({type(e).__name__}: {e})"
                )
        for v, l2s in columns.items():
            missing = tuple(l for l in l2s if (v, l) not in results)
            if missing:
                column, _ = _evaluate_vlen(
                    name, layers, v, missing, hybrid, variant, base, mode
                )
                for l, result, secs in column:
                    finish(v, l, result, secs)

        run_info = telemetry.sweep_end()
        if directory is not None:
            _write_json_atomic(
                directory / MANIFEST_NAME,
                {**manifest, MANIFEST_RUN_KEY: run_info},
            )

    return SweepResult(
        name=name, vlens=grid_vlens, l2_mbs=grid_l2s, results=results,
        backend=mode, degraded=telemetry.degraded,
    )


def _make_pool(
    workers: int, tasks: int
) -> tuple[ProcessPoolExecutor | None, str | None]:
    """A process pool, or ``(None, reason)`` for the serial path.

    Serial-by-design when one worker suffices (``workers=1``, or
    nothing left to compute) — that returns ``(None, None)``, no
    degradation.  Serial-by-necessity when the platform cannot spawn a
    pool (restricted environments raise ``OSError`` /
    ``NotImplementedError``) — that returns ``(None, reason)`` so the
    caller can surface the degradation instead of hiding it.
    """
    if workers <= 1 or tasks <= 1:
        return None, None
    try:
        return ProcessPoolExecutor(max_workers=min(workers, tasks)), None
    except (OSError, NotImplementedError, ImportError) as e:
        return None, f"could not start a process pool ({type(e).__name__}: {e})"
