"""Run one workload: set up, time whole rounds, then verify.

Each runner returns a :class:`RunData`.  Set-up (cold starts in fresh
interpreters, warm-up, warming the service) happens before the timed
window and output verification after each operation's clock stops or
after the window closes, so neither is timed.  With a
:class:`~tracing.SpanRecorder` the wrappers are installed for the timed
window only.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import serving
import verify
import workloads
from metrics import HostSpeed, Op, coverage, wrapper_calls
from tracing import (
    Span,
    SpanRecorder,
    calibrate_overhead,
    in_window,
    read_jsonl,
    self_times,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: The service's clients pause this often (s) so the probe can run on
#: an idle host.
SERVE_SLICE_S = 1.0


def clean_env() -> dict[str, str]:
    """The environment without any ``REPRO_*`` knob, importing ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class RunData:
    speed: HostSpeed = field(default_factory=HostSpeed)
    ops: list[Op] = field(default_factory=list)
    #: Timed wall intervals (start, seconds): the operations themselves,
    #: or for the service the slices its clients ran.
    segments: list[tuple[float, float]] = field(default_factory=list)
    setup: list[tuple[float, float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    failures: list[tuple[str | None, str]] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    missing: set[str] = field(default_factory=set)
    extras: dict[str, float | None] = field(default_factory=dict)

    def fail(self, key: str | None, reason: str) -> None:
        """Record a failure of operation ``key`` (``None``: of the run)."""
        self.failures.append((key, reason))
        for op in self.ops:
            if op.key == key:
                op.ok = False

    @property
    def window_s(self) -> float:
        return sum(secs for _, secs in self.segments)

    @property
    def failed(self) -> int:
        return (sum(1 for op in self.ops if not op.ok)
                + sum(1 for key, _ in self.failures if key is None))


def _span(rec: SpanRecorder | None, name: str) -> Any:
    from contextlib import nullcontext

    return rec.span(name) if rec is not None else nullcontext()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_start(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to its first result."""
    code = ("import sys; sys.path[:0] = [%r, %r]; import runners; "
            "runners.warm_up(%r)" % (str(HERE), str(SRC), workload))
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=clean_env(),
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   check=True, timeout=120)
    return time.monotonic() - t0


def warm_up(workload: str) -> None:
    """The smallest operation of a workload (also the cold-start probe)."""
    if workload == "kernel_trace":
        case = workloads.KernelCase("direct", "", 4, 4, 8, 8, 1, 1, 0, 512)
        run_case(case, *workloads.Kernels(0, "smoke").data(case, 0))
    else:
        mode = "fast" if workload == "sweep_fast_fine" else "exact"
        run_column(workloads.Column("vgg16", 128, 96, True, 2048, mode, (1, 256)))


def timed_rounds(rounds: Iterable[list[Any]], seconds: float,
                 step: Callable[[Any, int], None]) -> None:
    """Run whole rounds (at least one) while the next is projected to
    end within ``seconds``."""
    t0 = time.monotonic()
    for r, items in enumerate(rounds):
        for item in items:
            step(item, r)
        elapsed = time.monotonic() - t0
        if elapsed * (r + 2) / (r + 1) > seconds:
            break


def _finish_trace(data: RunData, rec: SpanRecorder, t0: float, t1: float,
                  remote: list[Span] | None = None) -> None:
    """Window the spans and derive the tracing-overhead estimate."""
    rec.uninstall()
    local = in_window(rec.spans, t0, t1)
    data.spans = local + in_window(remote or [], t0, t1)
    data.missing |= set(rec.missing)
    per_call = calibrate_overhead()
    calls = wrapper_calls(data.spans)
    data.extras["obs.host_slowdown"] = data.speed.slowdown()
    data.extras["obs.trace_overhead"] = (
        100.0 * calls * per_call / max(data.window_s - calls * per_call, 1e-9))
    data.extras["obs.span_coverage"] = coverage(local, self_times(local))
    data.extras["obs.spans"] = float(len(data.spans))


# ----------------------------------------------------------------------
# Sweeps.
# ----------------------------------------------------------------------
def run_column(col: workloads.Column) -> Any:
    from repro.codesign import codesign_sweep

    return codesign_sweep(col.net, col.layers(), vlens=(col.vlen,),
                          l2_mbs=col.l2_mbs, hybrid=col.hybrid, workers=1,
                          mode=col.mode)


def _setup(data: RunData, n: int, start: Callable[[], float]) -> None:
    for _ in range(n):
        data.speed.sample(2)
        data.setup.append((time.monotonic(), start()))


def run_sweep(wl: workloads.Sweep, seconds: float, rec: SpanRecorder | None,
              n_setup: int) -> RunData:
    data = RunData()
    _setup(data, n_setup, lambda: cold_start(wl.name))
    warm_up(wl.name)
    expected = verify.load()["columns"]
    rng = random.Random(f"{wl.name}:check:{wl.seed}")
    cheap = [c for c in next(wl.rounds()) if c.vlen >= 2048]
    checked = rng.choice(cheap)
    kept: dict[str, Any] = {}

    def step(col: workloads.Column, r: int) -> None:
        t = time.monotonic()
        try:
            with _span(rec, "codesign.sweep"):
                result = run_column(col)
        except Exception as e:  # a failed column is a failed operation
            data.ops.append(Op(col.id, time.monotonic() - t, 0, start=t))
            data.fail(col.id, f"{type(e).__name__}: {e}")
            return
        data.ops.append(Op(col.id, time.monotonic() - t, len(col.l2_mbs),
                           start=t))
        data.speed.sample(2)
        got = verify.digest(result.to_dict())
        if expected.get(col.id) != got:
            data.fail(col.id, "result differs from the expected table")
        if col.id == checked.id:
            kept[col.id] = result

    if rec is not None:
        rec.install()
    t0 = time.monotonic()
    timed_rounds(wl.rounds(), seconds, step)
    t1 = time.monotonic()
    data.segments = [(op.start, op.seconds) for op in data.ops]
    data.peak_rss_mb = _rss_mb()
    if rec is not None:
        _finish_trace(data, rec, t0, t1)
    if checked.id in kept:
        reason = verify.cross_check_column(checked, kept[checked.id], rng)
        if reason:
            data.fail(checked.id, reason)
    return data


# ----------------------------------------------------------------------
# Kernel cases.
# ----------------------------------------------------------------------
@dataclass
class CaseResult:
    out: Any
    trace: Any   # SimStats of the replayed trace
    model: Any   # SimStats of the analytical model
    instrs: int
    mem_events: int
    functional_s: float
    replay_s: float


def run_case(case: workloads.KernelCase, x: Any, w: Any,
             rec: SpanRecorder | None = None) -> CaseResult:
    """Run a layer on the RVV machine with trace capture, replay the
    trace, and evaluate the analytical model of the same layer."""
    from repro.conv import ConvAlgorithm, ConvLayerSpec
    from repro.kernels import im2col_gemm_conv2d_sim, winograd_conv2d_sim
    from repro.kernels.direct import direct_conv1x1_sim
    from repro.kernels.tuple_mult import SLIDEUP
    from repro.model.layer_model import layer_phases
    from repro.model.traffic import stats_from_model
    from repro.rvv import Memory, RvvMachine, Tracer
    from repro.sim import Simulator, SystemConfig

    machine = RvvMachine(case.vlen, memory=Memory(1 << 25),
                         tracer=Tracer(capture=True))
    t0 = time.monotonic()
    with _span(rec, "kernels.functional"):
        if case.algorithm == "winograd":
            out = winograd_conv2d_sim(machine, x, w, pad=case.pad,
                                      variant=case.variant)
            algo = ConvAlgorithm.WINOGRAD
        elif case.algorithm == "im2col":
            out = im2col_gemm_conv2d_sim(machine, x, w, stride=case.stride,
                                         pad=case.pad)
            algo = ConvAlgorithm.IM2COL_GEMM
        else:
            out = direct_conv1x1_sim(machine, x, w, stride=case.stride)
            algo = ConvAlgorithm.DIRECT
    t1 = time.monotonic()
    cfg = SystemConfig(vlen_bits=case.vlen, l2_mb=1)
    with _span(rec, "sim.run_trace"):
        trace = Simulator(cfg).run_trace(machine.tracer)
    t2 = time.monotonic()
    spec = ConvLayerSpec(case.id, case.c_in, case.h, case.w, case.c_out,
                         case.ksize, case.stride, case.pad)
    phases = layer_phases(spec, cfg, algorithm=algo,
                          variant=case.variant or SLIDEUP)
    with _span(rec, "model.stats_from_model"):
        model = stats_from_model(phases, cfg)
    return CaseResult(out, trace, model, machine.tracer.total_instrs,
                      sum(1 for _ in machine.tracer.mem_events()),
                      t1 - t0, t2 - t1)


def run_kernels(wl: workloads.Kernels, seconds: float,
                rec: SpanRecorder | None, n_setup: int) -> RunData:
    data = RunData()
    _setup(data, n_setup, lambda: cold_start("kernel_trace"))
    warm_up("kernel_trace")
    expected = verify.load()["kernel_cases"]
    totals = {"instrs": 0, "events": 0, "functional": 0.0, "replay": 0.0,
              "cycles": 0.0, "l1": 0, "l2": 0, "dram": 0}
    errs = {"l2": 0.0, "cycles": 0.0}

    def step(case: workloads.KernelCase, r: int) -> None:
        x, w = wl.data(case, r)
        t = time.monotonic()
        with _span(rec, "bench.case"):
            res = run_case(case, x, w, rec)
        data.ops.append(Op(case.id, time.monotonic() - t, res.instrs, start=t))
        data.speed.sample(2)
        totals["instrs"] += res.instrs
        totals["events"] += res.mem_events
        totals["functional"] += res.functional_s
        totals["replay"] += res.replay_s
        totals["cycles"] += res.trace.cycles
        totals["l1"] += res.trace.hierarchy.l1.misses
        totals["l2"] += res.trace.hierarchy.l2.misses
        totals["dram"] += res.trace.dram_bytes
        errs["l2"] = max(errs["l2"], _rel(res.model.hierarchy.l2.misses,
                                          res.trace.hierarchy.l2.misses))
        errs["cycles"] = max(errs["cycles"], _rel(res.model.cycles,
                                                  res.trace.cycles))
        reason = verify.check_case(case, x, w, res, expected)
        if reason:
            data.fail(case.id, reason)

    if rec is not None:
        rec.install()
    t0 = time.monotonic()
    timed_rounds(wl.rounds(), seconds, step)
    t1 = time.monotonic()
    data.segments = [(op.start, op.seconds) for op in data.ops]
    data.peak_rss_mb = _rss_mb()
    data.extras.update({
        "rvv.instrs": float(totals["instrs"]),
        "rvv.instr_per_s": totals["instrs"] / totals["functional"],
        "sim.events_per_s": totals["events"] / totals["replay"],
        "sim.cycles": totals["cycles"],
        "sim.l1.misses": float(totals["l1"]),
        "sim.l2.misses": float(totals["l2"]),
        "sim.dram_bytes": float(totals["dram"]),
        "model.l2_miss_err": 100.0 * errs["l2"],
        "model.cycles_err": 100.0 * errs["cycles"],
    })
    if rec is not None:
        _finish_trace(data, rec, t0, t1)
    return data


def _rel(model: float, trace: float) -> float:
    return abs(model - trace) / trace if trace else 0.0


# ----------------------------------------------------------------------
# The service.
# ----------------------------------------------------------------------
def _serve_cold_start() -> float:
    """Spawn ``repro serve``, wait for health, answer one cold query."""
    body = json.dumps({
        "cfg": workloads.cfg_text((8, 8, 8), 64, 64), "name": "probe",
        "vlens": [4096], "l2_mbs": [1], "mode": "fast"}).encode()
    t0 = time.monotonic()
    with serving.Server(ROOT, clean_env()) as server:
        status, _ = serving.get(server.port, "/v1/healthz")
        reply = serving.query(server.port, body)
        elapsed = time.monotonic() - t0
    if status != 200 or not reply.ok:
        raise RuntimeError(f"service cold start failed: {reply.error}")
    return elapsed


def _scraped_extras(before: dict[str, float], after: dict[str, float],
                    window_s: float) -> dict[str, float | None]:
    """Per-layer values from two ``/metrics`` scrapes around the window
    (``None`` for a family the server no longer exposes)."""
    def delta(name: str) -> float | None:
        return after[name] - before.get(name, 0.0) if name in after else None

    out = {
        "serve.store.hits": delta("repro_store_hits_total"),
        "serve.store.misses": delta("repro_store_misses_total"),
        "serve.store.coalesced": delta("repro_store_coalesced_total"),
        "serve.points.computed": delta("repro_serve_points_computed_total"),
        "serve.points.coalesced": delta("repro_serve_points_coalesced_total"),
    }
    hits, misses = out["serve.store.hits"], out["serve.store.misses"]
    out["serve.store.hit_ratio"] = (
        100.0 * hits / (hits + misses)
        if hits is not None and misses is not None and hits + misses else None)
    queue_s = delta("repro_serve_queue_seconds_sum")
    out["serve.queue_wait_pct"] = (
        None if queue_s is None else 100.0 * queue_s / window_s)
    non2xx = [delta(f"repro_http_responses_{c}xx_total") for c in (4, 5)]
    out["serve.http.non2xx"] = (
        None if non2xx[0] is None or non2xx[1] is None else non2xx[0] + non2xx[1])
    return out


def run_serve(plan: workloads.ServePlan, seconds: float,
              rec: SpanRecorder | None, n_setup: int, out_dir: Path) -> RunData:
    data = RunData()
    _setup(data, n_setup, _serve_cold_start)
    spans_file = out_dir / "server_spans.jsonl" if rec is not None else None
    bodies = [json.dumps(p).encode() for p in plan.pool]
    replies: list[tuple[workloads.ServeOp, serving.Reply]] = []
    first: dict[int, tuple[bytes, serving.Reply]] = {}
    lock = threading.Lock()
    ops: Iterator[workloads.ServeOp] = plan.ops()

    server = serving.Server(ROOT, clean_env(), spans=spans_file)
    try:
        for payload in plan.warm:
            reply = serving.query(server.port, json.dumps(payload).encode())
            if not reply.ok:
                raise RuntimeError(f"warming the pool failed: {reply.error}")
        before = serving.scrape(server.port)

        def client(deadline: float) -> None:
            while True:
                with lock:
                    if time.monotonic() >= deadline:
                        return
                    op = next(ops)
                body = (bodies[op.pool_index] if op.pool_index >= 0
                        else json.dumps(op.payload).encode())
                reply = serving.query(server.port, body)
                # Off the clock: every answer to a pool query must repeat
                # the first one byte for byte (decoded after the window).
                if reply.ok:
                    line = reply.result_line()
                    if op.pool_index >= 0:
                        with lock:
                            ref, kept = first.setdefault(
                                op.pool_index, (line, reply))
                        if ref != line:
                            reply.error = "answer differs from the first one"
                        if kept is not reply:
                            reply.body = b""
                with lock:
                    replies.append((op, reply))

        if rec is not None:
            rec.install()
        t0 = time.monotonic()
        while data.window_s < seconds:
            # Both clients idle (no query in flight): probe the host.
            data.speed.sample(3)
            start = time.monotonic()
            end = start + min(SERVE_SLICE_S, seconds - data.window_s)
            threads = [threading.Thread(target=client, args=(end,))
                       for _ in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            data.segments.append((start, time.monotonic() - start))
        t1 = time.monotonic()
        after = serving.scrape(server.port)
        data.peak_rss_mb = server.peak_rss_mb()
    finally:
        code = server.stop()
    if code != 0:
        data.fail(None, f"server exited with {code}")

    answers = {i: kept for i, (_, kept) in first.items()}
    answers.update({-1 - i: r for i, (op, r) in enumerate(replies)
                    if op.cold_index >= 0 and r.ok})
    decoded: dict[int, dict[str, Any]] = {}
    for i, reply in answers.items():
        try:
            decoded[i] = reply.sweep()
        except ValueError as e:
            reply.error = str(e)
    cold_points: set[tuple[int, str, int, int]] = set()
    for i, (op, reply) in enumerate(replies):
        key = f"q{i}"
        if reply.ok and op.pool_index >= 0 and not answers[op.pool_index].ok:
            reply.error = "the first answer to this query did not decode"
        points = len(op.payload["vlens"]) * len(op.payload["l2_mbs"])
        data.ops.append(Op(key, reply.seconds, points, cold=op.cold_index >= 0,
                           start=reply.start))
        if not reply.ok:
            data.fail(key, str(reply.error))
        if op.cold_index >= 0:
            for v in op.payload["vlens"]:
                for l2 in op.payload["l2_mbs"]:
                    cold_points.add((op.cold_index, op.payload["mode"], v, l2))

    data.extras.update(_scraped_extras(before, after, data.window_s))
    data.extras["serve.cold_points"] = float(len(cold_points))
    data.extras["serve.cold_queries"] = float(
        sum(1 for op, _ in replies if op.cold_index >= 0))
    computed = data.extras["serve.points.computed"]
    if computed is not None and computed != len(cold_points):
        data.fail(
            None, f"{computed:.0f} points computed for {len(cold_points)} distinct "
            f"cold points (exactly-once violated)")

    if rec is not None:
        total = sum(r.seconds for _, r in replies) or 1.0
        for name, part in (
                ("connect", lambda r: r.connected - r.start),
                ("ttfb", lambda r: r.first_byte - r.connected),
                ("stream", lambda r: r.end - r.first_byte)):
            data.extras[f"serve.client.{name}_pct"] = (
                100.0 * sum(part(r) for _, r in replies) / total)
        for _, r in replies:
            root = rec.add("serve.client.query", r.start, r.end,
                           query_id=r.query_id)
            rec.add("serve.client.connect", r.start, r.connected, root, r.query_id)
            rec.add("serve.client.ttfb", r.connected, r.first_byte, root, r.query_id)
            rec.add("serve.client.stream", r.first_byte, r.end, root, r.query_id)
        remote, missing = read_jsonl(spans_file) if spans_file else ([], [])
        data.missing |= set(missing)
        _finish_trace(data, rec, t0, t1, remote)

    reason = verify.cross_check_served(plan, replies, decoded)
    if reason:
        data.fail(None, reason)
    return data
