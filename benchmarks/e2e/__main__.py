"""``python -m benchmarks.e2e`` -- run, compare and maintain the benchmark.

    run [--workload W] [--seed N] [--seconds S] [--traced] --out DIR
        Run each workload (default: all four) in a fresh process with
        every REPRO_* knob unset, print ``workload metric value unit``
        lines and write DIR/<workload>-seed<N>[-traced].json.
    spread DIR [DIR ...]
        Median, quartiles and IQR/median of every (workload, metric)
        over the result files in the directories, flagging spreads
        above the metric's bound in BENCHMARK.json.
    expected
        Regenerate expected/outputs.json from the program as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def cmd_run(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else [
        w["name"] for w in _benchmark()["workloads"]]
    seconds = args.seconds or _benchmark()["run_seconds"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    status = 0
    for name in names:
        for trace in ((0, 1) if args.traced else (0,)):
            tag = f"{name}-seed{args.seed}" + ("-traced" if trace else "")
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--scale", args.scale,
                 "--out", str(out / tag)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=900)
            lines = proc.stdout.strip().splitlines()
            sys.stderr.write(proc.stderr)
            if proc.returncode not in (0, 1) or not lines:
                print(f"{name}: run failed with exit {proc.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            status |= 0 if result["correct"] else 1
            (out / f"{tag}.json").write_text(json.dumps({
                "workload": name, "seed": args.seed, "traced": bool(trace),
                "seconds": seconds, "result": result}, indent=1) + "\n")
    return status


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_spread(args: argparse.Namespace) -> int:
    bounds = {m["name"]: m["bound"] for m in _benchmark()["end_to_end"]}
    series: dict[tuple[str, bool, str], list[float]] = defaultdict(list)
    for d in args.dirs:
        for path in sorted(Path(d).glob("*.json")):
            run = json.loads(path.read_text(encoding="utf-8"))
            for metric, m in run["result"]["metrics"].items():
                if m["value"] is not None:
                    series[(run["workload"], run["traced"], metric)].append(
                        float(m["value"]))
    flagged = 0
    print(f"{'workload':<16}{'metric':<40}{'n':>3}{'median':>14}{'q1':>14}"
          f"{'q3':>14}{'iqr/med':>9}{'bound':>7}")
    for (workload, traced, metric), values in sorted(series.items()):
        q1, med, q3 = _quartiles(values)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = None if traced else bounds.get(metric)
        flag = ""
        if bound is not None and metric != "setup_s" and spread > bound:
            flag, flagged = "  !", flagged + 1
        shown = f"{bound:>7.2f}" if bound is not None else f"{'-':>7}"
        print(f"{workload:<16}{metric:<40}{len(values):>3}{med:>14.6g}"
              f"{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}{shown}{flag}")
    return 1 if flagged else 0


def cmd_expected(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import verify

    verify.generate()
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run workloads in fresh processes")
    r.add_argument("--workload")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--seconds", type=float, default=None)
    r.add_argument("--traced", action="store_true",
                   help="also run each workload traced (per-layer metrics)")
    r.add_argument("--scale", choices=("full", "smoke"), default="full")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_run)
    s = sub.add_parser("spread", help="run-to-run spread of result files")
    s.add_argument("dirs", nargs="+")
    s.set_defaults(func=cmd_spread)
    e = sub.add_parser("expected", help="regenerate expected/outputs.json")
    e.set_defaults(func=cmd_expected)
    args = p.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    sys.exit(main())
