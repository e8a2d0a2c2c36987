"""Command-line interface: ``python -m repro <command>``.

A small driver exposing the package's main entry points without writing
Python — the role Spike's and gem5's command lines play in the paper's
workflow:

- ``conv``     run one convolutional layer functionally + through the
               timing model and print its statistics;
- ``sweep``    run a network over the co-design grid (Figures 3/4,
               Tables 1/2); ``--trace DIR`` records the structured
               event stream and run manifest;
- ``profile``  simulate one network inference under the span tracer and
               print the per-layer time/counter breakdown;
               ``--roofline`` classifies every layer memory- vs
               compute-bound from the *measured* span counters and
               reconciles against the analytical roofline model;
- ``trace``    analytics over recorded traces: ``diff`` two payloads
               span-for-span, ``top`` the hottest spans plus the
               critical path, ``export`` to Chrome trace-event JSON or
               folded stacks;
- ``bench``    the regression observatory: ``record`` freezes a sweep
               into a versioned ``BENCH_<rev>.json`` baseline,
               ``compare`` re-runs it and exits non-zero on regression;
- ``roofline``     print the Figure 5/6 rooflines;
- ``lint-kernels`` audit every kernel variant with the verifier passes
                   (spec conformance, hazards, VLA portability) — by
                   trace lifting, or with ``--static`` by VLEN-symbolic
                   abstract interpretation with zero kernel executions;
                   ``--json`` emits a stable machine-readable report,
                   ``--perf`` adds the non-gating performance lints;
- ``analyze``      symbolically analyze one kernel: structural VLEN
                   regimes, perf lints, and with ``--cost`` a static
                   cost model (closed forms in VLEN) that
                   ``--reconcile`` machine-checks bit-exactly against
                   concrete traced runs;
- ``tune``         per-layer schedule search over the kernel DSL:
                   surrogate-rank the space, exactly simulate the
                   top-k, report the best schedule with provenance;
- ``info``         describe a system configuration.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.codesign import (
    MODES,
    PAPER_TABLE1_YOLO,
    PAPER_TABLE2_VGG,
    codesign_sweep,
    miss_rate_report,
    runtime_figure,
    validate_codesign_sweep,
)
from repro.conv import ConvAlgorithm, direct_conv2d
from repro.kernels import im2col_gemm_conv2d_sim, winograd_conv2d_sim
from repro.nets import vgg16_conv_layers, vgg16_layers, yolov3_layers
from repro.roofline import render_roofline, roofline_points
from repro.rvv import Memory, RvvMachine, Tracer
from repro.sim import Simulator, SystemConfig


def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vlen", type=int, default=512,
                   help="vector length in bits (default 512)")
    p.add_argument("--l2-mb", type=int, default=1,
                   help="L2 capacity in MB (default 1)")
    p.add_argument("--l1-kb", type=int, default=64)


def _config(args) -> SystemConfig:
    return SystemConfig(vlen_bits=args.vlen, l2_mb=args.l2_mb, l1_kb=args.l1_kb)


def cmd_conv(args) -> int:
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.channels, args.size, args.size)).astype(np.float32)
    w = rng.standard_normal(
        (args.filters, args.channels, args.ksize, args.ksize)
    ).astype(np.float32)
    machine = RvvMachine(args.vlen, memory=Memory(1 << 28),
                         tracer=Tracer(capture=True))
    if args.algorithm == "winograd":
        if args.ksize != 3:
            print("winograd requires --ksize 3", file=sys.stderr)
            return 2
        out = winograd_conv2d_sim(machine, x, w, pad=1)
        ref = direct_conv2d(x.astype(np.float64), w.astype(np.float64), pad=1)
    else:
        out = im2col_gemm_conv2d_sim(machine, x, w, stride=args.stride,
                                     pad=args.ksize // 2)
        ref = direct_conv2d(x.astype(np.float64), w.astype(np.float64),
                            stride=args.stride, pad=args.ksize // 2)
    err = float(np.max(np.abs(out - ref)))
    print(f"functional check vs direct convolution: max abs err {err:.2e}")
    stats = Simulator(_config(args)).run_trace(machine.tracer, label="cli conv")
    print(stats.report())
    return 0 if err < 1e-2 else 1


def _network(name: str):
    if name == "vgg16":
        return vgg16_layers()
    if name == "yolov3":
        return yolov3_layers()
    raise SystemExit(f"unknown network {name!r} (choose vgg16 or yolov3)")


def cmd_sweep(args) -> int:
    from dataclasses import asdict
    from pathlib import Path

    from repro.obs import JsonlSink, run_manifest, write_manifest

    layers = _network(args.network)
    vlens = tuple(int(v) for v in args.vlens.split(","))
    l2s = tuple(int(v) for v in args.l2_sizes.split(","))
    on_progress = None
    if args.progress:
        def on_progress(p):
            print(p.describe(), file=sys.stderr)
    sink = None
    if args.trace:
        trace_dir = Path(args.trace)
        write_manifest(trace_dir, run_manifest(
            "sweep", config=asdict(SystemConfig()), backend=args.mode,
            extra={"network": args.network, "vlens": list(vlens),
                   "l2_mbs": list(l2s), "workers": args.workers,
                   "hybrid": not args.pure_gemm},
        ))
        sink = JsonlSink(trace_dir / "events.jsonl")
    common = dict(hybrid=not args.pure_gemm, workers=args.workers,
                  checkpoint_dir=args.checkpoint_dir,
                  on_progress=on_progress, sink=sink)
    try:
        if args.mode == "validate":
            validation = validate_codesign_sweep(
                args.network, layers, vlens=vlens, l2_mbs=l2s, **common)
            sweep = validation.exact
        else:
            validation = None
            sweep = codesign_sweep(args.network, layers, vlens=vlens,
                                   l2_mbs=l2s, mode=args.mode, **common)
    finally:
        if sink is not None:
            sink.close()
    if args.json:
        import json

        payload = {
            "backend": sweep.backend,
            "degraded": sweep.degraded,
            "points": {
                f"{v}b/{l}MB": sweep.at(v, l).total.to_dict()
                for v in sweep.vlens for l in sweep.l2_mbs
            },
        }
        if validation is not None:
            payload["validation"] = {
                "max_miss_rate_delta": validation.max_miss_rate_delta,
                "best_agrees": validation.best_agrees,
                "deltas": {
                    f"{v}b/{l}MB": d
                    for (v, l), d in validation.miss_rate_deltas.items()
                },
            }
        print(json.dumps(payload, indent=2))
        return 0
    print(runtime_figure(sweep))
    if 1 in l2s:
        table = (PAPER_TABLE1_YOLO if args.network == "yolov3"
                 else PAPER_TABLE2_VGG)
        print()
        print(miss_rate_report(sweep, table, l2_mb=1))
    if validation is not None:
        print()
        print(validation.summary())
    if sweep.degraded:
        print("warning: the process pool degraded to serial execution "
              "during this sweep (results are exact; see the event "
              "trace)", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    """Run the co-design query service until interrupted, then drain."""
    import asyncio
    import signal

    from repro.obs import JsonlSink
    from repro.serve import CodesignService, ResultStore, ServeServer

    store = ResultStore(
        max_bytes=(args.store_mb * 1024 * 1024
                   if args.store_mb is not None else None),
        directory=args.store_dir,
    )
    access_sink = (JsonlSink(args.access_log)
                   if args.access_log is not None else None)
    service = CodesignService(
        store, workers=args.workers, trace_dir=args.trace,
        access_sink=access_sink,
    )
    server = ServeServer(service, host=args.host, port=args.port)

    async def run() -> None:
        await server.start()
        where = f"http://{args.host}:{server.port}"
        print(f"repro serve listening on {where} "
              f"(workers={service.workers}, "
              f"store={store.max_bytes // (1024 * 1024)}MB"
              + (f", dir={store.directory}" if store.directory else "")
              + (f", trace={service.trace_dir}" if service.trace_dir
                 else "")
              + (f", access-log={args.access_log}" if args.access_log
                 else "")
              + f"); metrics at {where}/metrics", file=sys.stderr)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await stop.wait()
        print("repro serve: draining in-flight queries...", file=sys.stderr)
        await server.stop()

    try:
        asyncio.run(run())
    finally:
        if access_sink is not None:
            access_sink.close()
    return 0


def cmd_query(args) -> int:
    """Submit one query to a running service and print the sweep."""
    import json
    from pathlib import Path

    from repro.codesign import SweepResult
    from repro.serve import stream_query

    payload: dict = {
        "vlens": [int(v) for v in args.vlens.split(",")],
        "l2_mbs": [int(v) for v in args.l2_sizes.split(",")],
        "mode": args.mode,
    }
    if args.cfg is not None:
        payload["cfg"] = Path(args.cfg).read_text()
        payload["name"] = args.name or Path(args.cfg).stem
    elif args.network is not None:
        payload["network"] = args.network
    else:
        print("error: pass a network name or --cfg FILE", file=sys.stderr)
        return 2
    if args.layers is not None:
        payload["max_layers"] = args.layers
    if args.pure_gemm:
        payload["hybrid"] = False
    sweep_dict = None
    point_events: list[dict] = []
    query_end: dict | None = None
    try:
        for ev in stream_query(args.host, args.port, payload,
                               timeout=args.timeout):
            kind = ev.get("event")
            if kind == "point":
                point_events.append(ev)
                if args.progress:
                    print(f"[{ev.get('done')}/{ev.get('total')}] "
                          f"vlen={ev.get('vlen')} l2={ev.get('l2_mb')}MB "
                          f"{ev.get('source')}", file=sys.stderr)
            elif kind == "query_end":
                query_end = ev
            elif kind == "query_error":
                print(f"error: {ev.get('reason')}", file=sys.stderr)
                return 1
            elif kind == "query_result":
                sweep_dict = ev.get("sweep")
    except OSError as e:
        print(f"error: cannot reach {args.host}:{args.port} ({e})",
              file=sys.stderr)
        return 1
    if sweep_dict is None:
        print("error: event stream ended without a result (the service "
              "may have rejected the query; see its log)", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(sweep_dict, indent=2))
    else:
        print(runtime_figure(SweepResult.from_dict(sweep_dict)))
    if args.timing:
        _print_query_timing(point_events, query_end)
    return 0


def _print_query_timing(
    point_events: list[dict], query_end: dict | None
) -> None:
    """The ``repro query --timing`` report (stderr, after the sweep).

    Per-point wall latency as the service measured it — store hits
    report the lookup time, computed/coalesced points their compute
    share — plus the end-to-end total and the hit/computed split."""
    served = (query_end or {}).get("served", {}) or {}
    total = (query_end or {}).get("seconds")
    total_text = f"{total:.3f}s" if isinstance(total, (int, float)) else "?"
    print(f"timing: {len(point_events)} points in {total_text} "
          f"(store {served.get('store', 0)}, "
          f"computed {served.get('computed', 0)}, "
          f"coalesced {served.get('coalesced', 0)})", file=sys.stderr)
    for ev in point_events:
        secs = ev.get("seconds")
        secs_text = (f"{secs:.6f}s" if isinstance(secs, (int, float))
                     else "-")
        print(f"  vlen={ev.get('vlen'):>5} l2={ev.get('l2_mb'):>3}MB  "
              f"{str(ev.get('source')):<9} {secs_text}", file=sys.stderr)


def cmd_loadtest(args) -> int:
    """Drive a running service with concurrent clients and report."""
    import asyncio
    import json
    from pathlib import Path

    from repro.errors import ReproError
    from repro.serve.loadtest import (
        DEFAULT_TIMEOUT,
        render_report_text,
        run_loadtest,
        run_saturation,
    )

    payload: dict = {
        "vlens": [int(v) for v in args.vlens.split(",")],
        "l2_mbs": [int(v) for v in args.l2_sizes.split(",")],
        "mode": args.mode,
    }
    if args.cfg is not None:
        payload["cfg"] = Path(args.cfg).read_text()
        payload["name"] = args.name or Path(args.cfg).stem
    elif args.network is not None:
        payload["network"] = args.network
    else:
        print("error: pass a network name or --cfg FILE", file=sys.stderr)
        return 2
    if args.layers is not None:
        payload["max_layers"] = args.layers
    if args.pure_gemm:
        payload["hybrid"] = False
    timeout = args.timeout if args.timeout is not None else DEFAULT_TIMEOUT

    try:
        if args.sweep is not None:
            levels = [int(v) for v in args.sweep.split(",")]
            report = asyncio.run(run_saturation(
                args.host, args.port, payload, levels,
                requests_per_client=args.requests, timeout=timeout,
            ))
            for level in report["levels"]:
                print(f"clients={level['clients']:>4}  "
                      f"{level['throughput_per_s']:>8}/s  "
                      f"server p99 {level['server_p99']}s  "
                      f"client p99 {level['client_p99']}s  "
                      f"failed {level['failed']}", file=sys.stderr)
        else:
            report = asyncio.run(run_loadtest(
                args.host, args.port, payload,
                clients=args.clients, requests_per_client=args.requests,
                loop_mode=args.loop, rate=args.rate, timeout=timeout,
            ))
            print(render_report_text(report), file=sys.stderr)
    except (ReproError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    text = json.dumps(report, indent=2)
    if args.out is not None:
        Path(args.out).write_text(text + "\n")
        print(f"report written to {args.out}", file=sys.stderr)
    if args.json or args.out is None:
        print(text)
    if args.sweep is not None:
        exactly_once_ok = all(
            bool(r["points"]["exactly_once"]["ok"])
            for r in report["reports"])
        failed = sum(r["requests"]["failed"] for r in report["reports"])
    else:
        exactly_once_ok = bool(report["points"]["exactly_once"]["ok"])
        failed = report["requests"]["failed"]
    return 0 if exactly_once_ok and not failed else 1


def cmd_profile(args) -> int:
    """Simulate one inference under the span tracer and report where
    the cycles went, per layer."""
    from dataclasses import asdict
    from pathlib import Path

    from repro.nets.inference import simulate_inference
    from repro.obs import (
        Tracer,
        render_trace_json,
        render_trace_text,
        run_manifest,
        trace_payload,
        tracing,
        write_manifest,
    )

    layers = _network(args.network)
    if args.layers is not None:
        layers = layers[: args.layers]
    cfg = _config(args)
    tracer = Tracer()
    with tracing(tracer):
        result = simulate_inference(
            args.network, layers, cfg, hybrid=not args.pure_gemm
        )
    root = tracer.root
    manifest = run_manifest(
        "profile", config=asdict(cfg),
        extra={"network": args.network, "layers": len(layers),
               "hybrid": not args.pure_gemm},
    )
    if args.trace:
        trace_dir = Path(args.trace)
        write_manifest(trace_dir, manifest)
        import json

        (trace_dir / "trace.json").write_text(
            json.dumps(trace_payload(root, manifest), indent=2) + "\n")
    if args.roofline:
        return _profile_roofline(args, root, cfg, layers)
    if args.json:
        print(render_trace_json(root, manifest))
    else:
        print(render_trace_text(root))
        print()
        print(result.total.report())
    return 0


def _profile_roofline(args, root, cfg, layers) -> int:
    """``repro profile --roofline``: measured-counter attribution,
    reconciled against the analytical roofline model.  Exits non-zero
    when the two classifications disagree on any layer — the paper's
    boundedness claims are checked, not narrated."""
    from repro.conv.layer import ConvLayerSpec
    from repro.obs import disagreements, reconcile, render_attribution
    from repro.roofline import measured_roofline

    conv_specs = [l for l in layers if isinstance(l, ConvLayerSpec)]
    measured = measured_roofline(root, cfg)
    modeled = roofline_points(conv_specs, cfg, algorithm=None,
                              hybrid=not args.pure_gemm)
    recs = reconcile(measured, modeled)
    bad = disagreements(recs)
    if args.json:
        import json

        print(json.dumps({
            "network": args.network,
            "vlen_bits": cfg.vlen_bits,
            "l2_mb": cfg.l2_mb,
            "measured": [p.to_dict() for p in measured],
            "reconciliation": [r.to_dict() for r in recs],
            "agrees": not bad,
        }, indent=2))
    else:
        print(render_attribution(
            measured, recs,
            title=f"{args.network} @ {cfg.vlen_bits}b/{cfg.l2_mb}MB",
        ))
    return 1 if bad else 0


def cmd_trace_diff(args) -> int:
    """Align two trace payloads span-for-span and report the deltas.

    Exits 0 only when the trees align structurally and every primitive
    counter delta is zero (wall time may differ — it is noise); any
    counter movement is a behaviour change and exits 1.
    """
    from repro.obs import diff_payload, diff_traces, load_trace, render_diff_text

    a, b = load_trace(args.a), load_trace(args.b)
    root = diff_traces(a.span, b.span)
    clean = root.structurally_identical and root.max_abs_counter_delta == 0
    if args.json:
        import json

        print(json.dumps(diff_payload(a, b), indent=2))
    else:
        print(render_diff_text(root))
        print()
        if clean:
            print("traces are equivalent: structures align, all counter "
                  "deltas are zero (wall time is not compared)")
        else:
            print(f"traces differ: max |counter delta| "
                  f"{root.max_abs_counter_delta:g}"
                  + ("" if root.structurally_identical
                     else "; span structures diverge"))
    return 0 if clean else 1


def cmd_trace_top(args) -> int:
    """Rank a trace's spans by self cycles; append the critical path."""
    from repro.obs import (
        critical_path,
        load_trace,
        render_critical_path,
        render_top_text,
        span_cycles,
        top_spans,
    )

    payload = load_trace(args.trace)
    rows = top_spans(payload.span, n=args.n)
    total = span_cycles(payload.span)
    if args.json:
        import json

        print(json.dumps({
            "source": payload.source,
            "total_cycles": total,
            "top": [r.to_dict() for r in rows],
            "critical_path": [
                str(s.attrs.get("label", s.name))
                for s in critical_path(payload.span)
            ],
        }, indent=2))
        return 0
    print(render_top_text(rows, total))
    print()
    print(render_critical_path(critical_path(payload.span)))
    return 0


def cmd_trace_export(args) -> int:
    """Export a trace for off-the-shelf viewers."""
    from pathlib import Path

    from repro.obs import export_trace, load_trace

    payload = load_trace(args.trace)
    text = export_trace(payload.span, args.format)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.format} export to {args.output}",
              file=sys.stderr)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _bench_run(config: dict):
    """Run the observatory's sweep workload described by ``config``.

    Shared by ``bench record`` (freezing a new baseline) and ``bench
    compare`` (reproducing the stored baseline's workload exactly — the
    comparison re-runs what the *baseline* recorded, not whatever the
    current flags happen to say).
    """
    from repro.obs import BenchRecorder

    layers = _network(config["network"])
    if config.get("layers"):
        layers = layers[: int(config["layers"])]
    recorder = BenchRecorder()
    for _ in range(int(config["repeat"])):
        codesign_sweep(
            config["network"], layers,
            vlens=tuple(int(v) for v in config["vlens"]),
            l2_mbs=tuple(int(l) for l in config["l2_mbs"]),
            hybrid=bool(config["hybrid"]),
            mode=config["mode"],
            recorder=recorder,
        )
    return recorder


def cmd_bench_record(args) -> int:
    """Freeze the configured sweep into ``BENCH_<rev>.json``."""
    from dataclasses import asdict

    from repro.obs import (
        BaselineStore,
        baseline_payload,
        git_rev,
        run_manifest,
    )

    config = {
        "network": args.network,
        "layers": args.layers,
        "vlens": [int(v) for v in args.vlens.split(",")],
        "l2_mbs": [int(l) for l in args.l2_sizes.split(",")],
        "hybrid": not args.pure_gemm,
        "mode": args.mode,
        "repeat": args.repeat,
    }
    recorder = _bench_run(config)
    rev = args.rev or git_rev() or "untracked"
    manifest = run_manifest("bench", config=asdict(SystemConfig()),
                            backend=args.mode, extra=config)
    payload = baseline_payload(rev, recorder, config, manifest)
    store = BaselineStore(args.dir)
    path = store.save(payload)
    print(f"recorded baseline {rev}: {len(recorder)} bench(es) x "
          f"{args.repeat} run(s) -> {path}")
    return 0


def cmd_bench_compare(args) -> int:
    """Re-run a stored baseline's workload and diff; non-zero on
    regression (exact cycles, tolerance-checked wall time)."""
    from repro.obs import (
        BaselineStore,
        baseline_payload,
        compare_payloads,
        git_rev,
        render_comparison,
    )

    store = BaselineStore(args.dir)
    base = store.resolve(args.against)
    recorder = _bench_run(base["config"])
    current = baseline_payload(
        git_rev() or "worktree", recorder, base["config"]
    )
    cmp = compare_payloads(base, current, walls=not args.cycles_only)
    if args.json:
        import json

        print(json.dumps(cmp.to_dict(), indent=2))
    else:
        print(render_comparison(cmp))
    return 0 if cmp.ok else 1


def cmd_roofline(args) -> int:
    layers = vgg16_conv_layers()[: args.layers]
    algo = (ConvAlgorithm.WINOGRAD if args.algorithm == "winograd"
            else ConvAlgorithm.IM2COL_GEMM)
    pts = roofline_points(layers, _config(args), algo)
    print(render_roofline(pts, f"VGG16 first {args.layers} layers, {args.algorithm}"))
    return 0


def cmd_disasm(args) -> int:
    from repro.rvv import listing, load_trace, summarize_basic_blocks

    tracer = load_trace(args.trace)
    if args.summary:
        print(summarize_basic_blocks(tracer))
    else:
        print(listing(tracer, start=args.start, count=args.count))
    return 0


def cmd_lint_kernels(args) -> int:
    import json

    from repro.analysis import KERNEL_SPECS, audit_kernel, fast_specs, find_spec
    from repro.analysis.symbolic import audit_kernel_static
    from repro.isa import VLEN_CHOICES

    static = args.static
    if args.vlens is not None:
        vlens = tuple(int(v) for v in args.vlens.split(","))
    else:
        vlens = VLEN_CHOICES if static else (512, 1024, 2048, 4096)
    if args.kernel:
        specs = [find_spec(name) for name in args.kernel]
    elif args.fast:
        specs = list(fast_specs())
    else:
        specs = list(KERNEL_SPECS)

    failed = 0
    reports = []
    for spec in specs:
        flavors = spec.machines
        if args.machine:
            flavors = tuple(f for f in flavors if f in args.machine)
        for flavor in flavors:
            if static:
                report = audit_kernel_static(spec, flavor, vlens,
                                             perf=args.perf)
            else:
                report = audit_kernel(spec, flavor, vlens)
            reports.append(report)
            if not args.json:
                if report.ok and not args.verbose:
                    print(report.render().splitlines()[0])
                else:
                    print(report.render())
            if not report.ok:
                failed += 1
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
        return 1 if failed else 0
    print()
    if failed:
        print(f"FAIL: {failed} kernel audit(s) reported findings")
        return 1
    mode = "statically at VLEN" if static else "clean at VLEN"
    print(f"ok: {len(specs)} kernel(s) audited {mode} "
          f"{','.join(str(v) for v in vlens)}")
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis import find_spec
    from repro.analysis.pipeline import analyze_perf
    from repro.analysis.symbolic import (
        build_cost_model,
        interpret_kernel,
        reconcile,
    )
    from repro.isa import VLEN_CHOICES

    spec = find_spec(args.kernel)
    flavor = args.machine or spec.machines[0]
    if flavor not in spec.machines:
        print(f"error: {spec.name!r} does not support machine {flavor!r} "
              f"(supported: {', '.join(spec.machines)})", file=sys.stderr)
        return 2
    audit = interpret_kernel(spec, flavor, VLEN_CHOICES)
    groups = " | ".join(",".join(str(v) for v in rg.vlens)
                        for rg in audit.regimes)
    print(f"{spec.name} [{flavor}]  regimes: {groups or '(none)'}")
    if audit.unsupported:
        why = "; ".join(f"{v}: {r}"
                        for v, r in sorted(audit.unsupported.items()))
        print(f"  unsupported: {why}")
    if args.perf:
        print("perf lints (non-gating):")
        n = 0
        for rg in audit.regimes:
            for f in analyze_perf(rg.program):
                print(f.render())
                n += 1
        if not n:
            print("  (clean)")
    if args.cost:
        model = build_cost_model(audit)
        print(model.render())
        if args.reconcile:
            mismatches = reconcile(model, spec, flavor)
            if mismatches:
                print(f"RECONCILE FAIL ({len(mismatches)} mismatches):")
                for m in mismatches:
                    print(f"  {m}")
                return 1
            print("reconcile: static model matches concrete traces "
                  "bit-exactly")
    return 0


def cmd_info(args) -> int:
    cfg = _config(args)
    print(cfg.describe())
    print(f"lanes (fp32)      : {cfg.lanes}")
    print(f"peak GFLOP/s      : {cfg.peak_gflops:.1f}")
    print(f"DRAM bandwidth    : {cfg.dram_gbs} GB/s")
    print(f"roofline ridge AI : {cfg.peak_gflops / cfg.dram_gbs:.2f} flop/B")
    return 0


def cmd_tune(args) -> int:
    import json
    from dataclasses import asdict
    from pathlib import Path

    from repro.codesign.tuner import tune_network
    from repro.conv.layer import ConvLayerSpec
    from repro.obs import run_manifest, write_manifest

    config = _config(args)
    layers = [l for l in _network(args.network)
              if isinstance(l, ConvLayerSpec)]
    if args.layers is not None:
        layers = layers[: args.layers]
    report = tune_network(
        args.network, layers, config, seed=args.seed, budget=args.budget,
        top_k=args.top_k, max_pixels=args.max_pixels,
        max_channels=args.max_channels, exhaustive=args.exhaustive)
    payload = report.to_dict()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "tuning_report.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        write_manifest(out, run_manifest(
            "tune", config=asdict(config), seed=args.seed,
            extra={"network": args.network, "layers": args.layers,
                   "budget": args.budget, "top_k": args.top_k,
                   "max_pixels": args.max_pixels,
                   "max_channels": args.max_channels,
                   "exhaustive": args.exhaustive}))
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conv", help="run one convolution end to end")
    _add_system_args(p)
    p.add_argument("--algorithm", choices=["winograd", "im2col"],
                   default="winograd")
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--filters", type=int, default=8)
    p.add_argument("--size", type=int, default=20)
    p.add_argument("--ksize", type=int, default=3)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_conv)

    p = sub.add_parser("sweep", help="co-design sweep over VLEN x L2")
    p.add_argument("network", choices=["vgg16", "yolov3"])
    p.add_argument("--vlens", default="512,1024,2048,4096",
                   help="comma-separated vector lengths in bits")
    p.add_argument("--l2-sizes", default="1,16,64,128,256",
                   help="comma-separated L2 sizes in MB")
    p.add_argument("--pure-gemm", action="store_true",
                   help="baseline policy: im2col+GEMM everywhere")
    p.add_argument("--mode", choices=list(MODES), default="exact",
                   help="L2 criterion applied to one recording per "
                        "VLEN — exact: smoothed, bit-identical to "
                        "per-point simulation; fast: sharp Mattson "
                        "threshold; validate: run both and report "
                        "per-point miss-rate deltas")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable results")
    p.add_argument("--workers", type=int, default=1,
                   help="grid points evaluated in parallel (default 1: "
                        "serial; results are identical either way)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="write per-point JSON checkpoints to DIR; "
                        "re-running with the same DIR resumes an "
                        "interrupted sweep")
    p.add_argument("--progress", action="store_true",
                   help="print a per-point progress/ETA line to stderr")
    p.add_argument("--trace", default=None, metavar="DIR",
                   help="record the sweep's structured event stream "
                        "(events.jsonl) and run manifest (manifest.json) "
                        "into DIR")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="run the co-design query service (async HTTP, NDJSON "
             "event streams, content-addressed result store)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8037,
                   help="listen port (0 picks an ephemeral port)")
    p.add_argument("--workers", type=int, default=2,
                   help="VLEN columns evaluated concurrently")
    p.add_argument("--store-mb", type=int, default=None, metavar="MB",
                   help="in-memory result-store budget (default 64)")
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="persist every computed point to DIR so the "
                        "service restarts warm")
    p.add_argument("--trace", default=None, metavar="DIR",
                   help="write one query_<id>/ trace directory per "
                        "query into DIR (span trees consumable by "
                        "'repro trace diff/top/export')")
    p.add_argument("--access-log", default=None, metavar="FILE",
                   help="append one JSONL access record per query "
                        "(query_id, network_hash, point mix, wall, "
                        "status)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "query",
        help="submit one co-design query to a running 'repro serve'")
    p.add_argument("network", nargs="?", choices=["vgg16", "yolov3"],
                   help="a named network (or use --cfg)")
    p.add_argument("--cfg", default=None, metavar="FILE",
                   help="darknet cfg file describing a custom topology")
    p.add_argument("--name", default=None,
                   help="label for a --cfg topology (default: file stem)")
    p.add_argument("--layers", type=int, default=None, metavar="N",
                   help="truncate the network to its first N layers")
    p.add_argument("--vlens", default="512,1024,2048,4096",
                   help="comma-separated vector lengths in bits")
    p.add_argument("--l2-sizes", default="1,16,64,128,256",
                   help="comma-separated L2 sizes in MB")
    p.add_argument("--mode", choices=["exact", "fast"], default="exact")
    p.add_argument("--pure-gemm", action="store_true",
                   help="baseline policy: im2col+GEMM everywhere")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8037)
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="socket timeout in seconds (default: none)")
    p.add_argument("--progress", action="store_true",
                   help="print a per-point progress line to stderr")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable sweep dict")
    p.add_argument("--timing", action="store_true",
                   help="print per-point and total wall latency (and "
                        "the store-hit vs computed split) to stderr "
                        "after the query completes")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "loadtest",
        help="drive a running 'repro serve' with N concurrent clients "
             "and emit a JSON report (throughput, /metrics latency "
             "percentiles, hit-rate trajectory, exactly-once check)")
    p.add_argument("network", nargs="?", choices=["vgg16", "yolov3"],
                   help="a named network (or use --cfg)")
    p.add_argument("--cfg", default=None, metavar="FILE",
                   help="darknet cfg file describing a custom topology")
    p.add_argument("--name", default=None,
                   help="label for a --cfg topology (default: file stem)")
    p.add_argument("--layers", type=int, default=None, metavar="N",
                   help="truncate the network to its first N layers")
    p.add_argument("--vlens", default="512,1024,2048,4096",
                   help="comma-separated vector lengths in bits")
    p.add_argument("--l2-sizes", default="1,16,64,128,256",
                   help="comma-separated L2 sizes in MB")
    p.add_argument("--mode", choices=["exact", "fast"], default="fast")
    p.add_argument("--pure-gemm", action="store_true",
                   help="baseline policy: im2col+GEMM everywhere")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8037)
    p.add_argument("--clients", type=int, default=32,
                   help="concurrent clients (default 32)")
    p.add_argument("--requests", type=int, default=1, metavar="N",
                   help="queries per client (default 1)")
    p.add_argument("--loop", choices=["closed", "open"], default="closed",
                   help="closed loop (clients wait for answers) or "
                        "open loop (fixed arrival rate)")
    p.add_argument("--rate", type=float, default=None, metavar="R",
                   help="open-loop arrival rate in requests/second")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-request timeout in seconds "
                        "(default: REPRO_LOADTEST_TIMEOUT or 300)")
    p.add_argument("--sweep", default=None, metavar="N,N,...",
                   help="saturation sweep: run once per client count "
                        "and summarize throughput/latency per level")
    p.add_argument("--json", action="store_true",
                   help="print the full JSON report to stdout (a "
                        "human digest always goes to stderr)")
    p.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="also write the JSON report to FILE")
    p.set_defaults(func=cmd_loadtest)

    p = sub.add_parser(
        "profile",
        help="simulate one inference under the span tracer and print "
             "the per-layer time/counter breakdown")
    p.add_argument("network", choices=["vgg16", "yolov3"])
    _add_system_args(p)
    p.add_argument("--layers", type=int, default=None, metavar="N",
                   help="profile only the first N layers")
    p.add_argument("--pure-gemm", action="store_true",
                   help="baseline policy: im2col+GEMM everywhere")
    p.add_argument("--json", action="store_true",
                   help="emit the manifest + span tree as JSON")
    p.add_argument("--trace", default=None, metavar="DIR",
                   help="also write manifest.json and trace.json to DIR")
    p.add_argument("--roofline", action="store_true",
                   help="classify each layer memory- vs compute-bound "
                        "from its measured span counters, reconcile "
                        "against the analytical roofline model, and exit "
                        "non-zero on any disagreement")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "trace", help="analytics over recorded trace payloads")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    t = tsub.add_parser(
        "diff",
        help="align two traces span-for-span and report wall/cycle/"
             "counter deltas; exits non-zero when counters moved")
    t.add_argument("a", help="trace dir, trace.json, or profile --json file")
    t.add_argument("b", help="the trace to compare against A")
    t.add_argument("--json", action="store_true",
                   help="emit the full per-counter diff document")
    t.set_defaults(func=cmd_trace_diff)
    t = tsub.add_parser(
        "top", help="hottest spans by self cycles, plus the critical path")
    t.add_argument("trace", help="trace dir, trace.json, or profile --json file")
    t.add_argument("-n", type=int, default=10,
                   help="rows in the table (default 10)")
    t.add_argument("--json", action="store_true")
    t.set_defaults(func=cmd_trace_top)
    t = tsub.add_parser(
        "export", help="export a trace for external viewers")
    t.add_argument("trace", help="trace dir, trace.json, or profile --json file")
    t.add_argument("--format", choices=["chrome", "folded"],
                   default="chrome",
                   help="chrome: trace-event JSON for chrome://tracing/"
                        "Perfetto; folded: flamegraph.pl stacks")
    t.add_argument("-o", "--output", default=None, metavar="FILE",
                   help="write to FILE instead of stdout")
    t.set_defaults(func=cmd_trace_export)

    p = sub.add_parser(
        "bench",
        help="performance-regression observatory over sweep baselines")
    bsub = p.add_subparsers(dest="bench_command", required=True)
    b = bsub.add_parser(
        "record",
        help="run a sweep repeatedly and freeze it as BENCH_<rev>.json")
    b.add_argument("network", choices=["vgg16", "yolov3"])
    b.add_argument("--vlens", default="512,1024",
                   help="comma-separated vector lengths in bits")
    b.add_argument("--l2-sizes", default="1,16",
                   help="comma-separated L2 sizes in MB")
    b.add_argument("--layers", type=int, default=None, metavar="N",
                   help="truncate the network to its first N layers "
                        "(keeps the smoke baseline fast)")
    b.add_argument("--pure-gemm", action="store_true")
    b.add_argument("--mode", choices=["exact", "fast"], default="exact")
    b.add_argument("--repeat", type=int, default=3,
                   help="runs per bench; wall-time noise is estimated "
                        "from the spread (default 3)")
    b.add_argument("--dir", default="benchmarks/baselines",
                   help="baseline store directory")
    b.add_argument("--rev", default=None,
                   help="record under this revision name (default: "
                        "the current git revision)")
    b.set_defaults(func=cmd_bench_record)
    b = bsub.add_parser(
        "compare",
        help="re-run a stored baseline's workload and diff against it; "
             "exits non-zero on regression")
    b.add_argument("--against", default=None, metavar="REV",
                   help="baseline revision (default: most recent)")
    b.add_argument("--dir", default="benchmarks/baselines",
                   help="baseline store directory")
    b.add_argument("--cycles-only", action="store_true",
                   help="skip the wall-time comparison (for loaded or "
                        "shared machines where wall noise is unbounded)")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=cmd_bench_compare)

    p = sub.add_parser("roofline", help="Figure 5/6 rooflines")
    _add_system_args(p)
    p.add_argument("--algorithm", choices=["winograd", "im2col"],
                   default="winograd")
    p.add_argument("--layers", type=int, default=10)
    p.set_defaults(func=cmd_roofline)

    p = sub.add_parser("disasm", help="list a saved instruction trace")
    p.add_argument("trace", help="trace file written by save_trace")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--summary", action="store_true",
                   help="collapse runs of identical instruction classes")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser(
        "lint-kernels",
        help="audit kernels with the trace-lifted verifier passes")
    p.add_argument("--all", action="store_true",
                   help="audit the full registry (default)")
    p.add_argument("--kernel", action="append", metavar="NAME",
                   help="audit only this kernel (repeatable)")
    p.add_argument("--machine", action="append",
                   choices=["rvv", "rvv+", "sve"],
                   help="restrict to this machine flavor (repeatable)")
    p.add_argument("--vlens", default=None,
                   help="comma-separated VLENs to audit (default: "
                        "512,1024,2048,4096 traced; the full admissible "
                        "domain with --static)")
    p.add_argument("--static", action="store_true",
                   help="audit by abstract interpretation — zero kernel "
                        "executions, verdict covers every admissible VLEN")
    p.add_argument("--perf", action="store_true",
                   help="also run the non-gating performance lints "
                        "(with --static)")
    p.add_argument("--json", action="store_true",
                   help="emit the reports as a JSON list (stable schema; "
                        "exit status still reflects findings)")
    p.add_argument("--fast", action="store_true",
                   help="audit only the fast subset (skips full conv "
                        "drivers)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print per-pass detail even for clean kernels")
    p.set_defaults(func=cmd_lint_kernels)

    p = sub.add_parser(
        "analyze",
        help="symbolically analyze one kernel: regimes, perf lints, "
             "static cost model")
    p.add_argument("kernel", help="registered kernel name "
                                  "(see lint-kernels)")
    p.add_argument("--machine", choices=["rvv", "rvv+", "sve"],
                   default=None,
                   help="machine flavor (default: the kernel's first)")
    p.add_argument("--cost", action="store_true",
                   help="print the static cost model (closed forms in "
                        "VLEN per opclass and metric)")
    p.add_argument("--reconcile", action="store_true",
                   help="with --cost: machine-check the model against "
                        "concrete traced runs")
    p.add_argument("--perf", action="store_true",
                   help="run the non-gating performance lints")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "tune",
        help="per-layer schedule search: surrogate-rank the DSL's "
             "schedule space, exactly simulate the top-k on proxy "
             "problems, report the best schedule per layer")
    p.add_argument("network", choices=["vgg16", "yolov3"])
    _add_system_args(p)
    p.add_argument("--layers", type=int, default=None, metavar="N",
                   help="tune only the first N conv layers")
    p.add_argument("--seed", type=int, default=0,
                   help="rng seed for space sampling and test data "
                        "(results are a pure function of the seed)")
    p.add_argument("--budget", type=int, default=24,
                   help="candidate schedules surrogate-ranked per layer "
                        "(default 24; 0 = the whole space)")
    p.add_argument("--top-k", type=int, default=3, dest="top_k",
                   help="surrogate leaders re-ranked by exact "
                        "simulation (the default schedule is always "
                        "included; default 3)")
    p.add_argument("--max-pixels", type=int, default=1024,
                   help="proxy cap: halve the layer's spatial extents "
                        "until h_out*w_out fits (default 1024)")
    p.add_argument("--max-channels", type=int, default=64,
                   help="proxy cap on c_in/c_out (default 64)")
    p.add_argument("--exhaustive", action="store_true",
                   help="exactly simulate every sampled candidate "
                        "(slow; for surrogate validation)")
    p.add_argument("--json", action="store_true",
                   help="emit the full tuning report as JSON")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write tuning_report.json + manifest.json to DIR")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("info", help="describe a system configuration")
    _add_system_args(p)
    p.set_defaults(func=cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
