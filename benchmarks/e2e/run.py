"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 benchmarks/e2e/run.py --workload sweep_exact --seed 0 \\
        --seconds 15 --trace 0

Prints one ``workload metric value unit`` line per metric, then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}`` as JSON.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer breakdown of a traced run (spans land in ``--out``).  The
exit status is 0 only when every output verified.  Run it from a full
checkout: it imports the program from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DEFAULT_SECONDS = 15


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    p.add_argument("--out", default=None,
                   help="directory for span files (default .bench_out/...)")
    return p


def _json_value(v: float | None) -> float | None:
    return v if v is not None and math.isfinite(v) else None


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import metrics
    import runners
    import tracing
    import workloads

    try:
        wl = workloads.generate(args.workload, args.seed, args.scale)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else (
        ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    out.mkdir(parents=True, exist_ok=True)
    rec = tracing.SpanRecorder() if args.trace else None
    n_setup = 1 if args.scale == "smoke" else 5
    if args.workload == "serve_mixed":
        data = runners.run_serve(wl, args.seconds, rec, n_setup, out)
    elif args.workload == "kernel_trace":
        data = runners.run_kernels(wl, args.seconds, rec, n_setup)
    else:
        data = runners.run_sweep(wl, args.seconds, rec, n_setup)

    (out / "ops.json").write_text(json.dumps({
        "probes": list(zip(data.speed.times, data.speed.samples)),
        "ops": [[op.key, op.start, op.seconds, op.items, op.cold, op.ok]
                for op in data.ops],
    }) + "\n", encoding="utf-8")
    if rec is not None:
        rec.write_jsonl(out / "spans.jsonl")
        values = metrics.per_layer(metrics.LayerContext(
            tracing.summarize(data.spans), data.window_s, data.missing,
            data.extras))
    else:
        values = metrics.end_to_end(data.ops, data.segments, data.setup,
                                    data.peak_rss_mb, data.speed)
    print(f"host slowdown {data.speed.slowdown():.3f} (median over the run)",
          file=sys.stderr)
    for key, reason in data.failures:
        print(f"FAILED {key or args.workload}: {reason}", file=sys.stderr)
    units = metrics.units()
    for name, value in values.items():
        shown = ("null (its function or /metrics family is gone)"
                 if value is None else repr(value))
        print(f"{args.workload} {name} {shown} {units[name]}")
    failed = data.failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(data.ops),
        "failed": failed,
        "metrics": {name: {"value": _json_value(v), "unit": units[name]}
                    for name, v in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
