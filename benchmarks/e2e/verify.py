"""Output verification: the expected table plus live cross-checks.

``expected/outputs.json`` holds, for every column and kernel case any
seed can produce, a sha256 of the column's canonical
``SweepResult.to_dict()`` and each case's trace statistics, generated
from the program this benchmark was written against
(``python -m benchmarks.e2e expected`` regenerates it; a change that
must keep every simulated number does not).  The cross-checks run
against the program as it is: a replayed exact point against a fresh
``simulate_inference``, a fast column against the exact backend within
``MISS_RATE_BOUND``, served answers against a direct
``codesign_sweep``, and kernel outputs against ``direct_conv2d``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Any

import workloads

EXPECTED = Path(__file__).resolve().parent / "expected" / "outputs.json"

#: Kernel outputs must match the float64 direct convolution this well.
OUTPUT_TOLERANCE = 1e-2


def digest(obj: Any) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=1)
def load() -> dict[str, Any]:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def case_signature(res: Any) -> dict[str, float]:
    """The simulated statistics of one kernel case's replayed trace."""
    h = res.trace.hierarchy
    return {"instrs": res.instrs, "cycles": res.trace.cycles,
            "l1_misses": h.l1.misses, "l2_misses": h.l2.misses,
            "dram_bytes": res.trace.dram_bytes}


def check_case(case: workloads.KernelCase, x: Any, w: Any, res: Any,
               expected: dict[str, Any]) -> str | None:
    import numpy as np
    from repro.conv import direct_conv2d

    ref = direct_conv2d(x.astype(np.float64), w.astype(np.float64),
                        stride=case.stride, pad=case.pad)
    err = float(np.max(np.abs(res.out - ref)))
    if not err <= OUTPUT_TOLERANCE:
        return f"output differs from direct_conv2d by {err:.3g}"
    if expected.get(case.id) != case_signature(res):
        return "trace statistics differ from the expected table"
    return None


def cross_check_column(col: workloads.Column, result: Any,
                       rng: random.Random) -> str | None:
    from repro.codesign import MISS_RATE_BOUND, codesign_sweep
    from repro.nets import simulate_inference
    from repro.sim import SystemConfig

    if col.mode == "exact":
        l2 = rng.choice(col.l2_mbs)
        fresh = simulate_inference(
            col.net, col.layers(), SystemConfig(vlen_bits=col.vlen, l2_mb=l2),
            hybrid=col.hybrid)
        if fresh.to_dict() != result.at(col.vlen, l2).to_dict():
            return f"point at {l2} MB differs from a fresh simulate_inference"
        return None
    exact = codesign_sweep(col.net, col.layers(), vlens=(col.vlen,),
                           l2_mbs=col.l2_mbs, hybrid=col.hybrid, mode="exact")
    worst = max(abs(result.at(col.vlen, l2).total.l2_miss_rate
                    - exact.at(col.vlen, l2).total.l2_miss_rate)
                for l2 in col.l2_mbs)
    if worst > MISS_RATE_BOUND:
        return (f"fast miss rate off the exact backend by {worst:.3f} "
                f"> {MISS_RATE_BOUND}")
    return None


def direct_sweep(payload: dict[str, Any]) -> dict[str, Any]:
    """What a served query must answer, computed without the service."""
    from repro.codesign import codesign_sweep
    from repro.nets import build_layers, vgg16_layers, yolov3_layers

    if "network" in payload:
        name = payload["network"]
        layers = {"vgg16": vgg16_layers, "yolov3": yolov3_layers}[name]()
    else:
        name = payload.get("name", "custom")
        layers = build_layers(payload["cfg"])
    return codesign_sweep(name, layers, vlens=payload["vlens"],
                          l2_mbs=payload["l2_mbs"],
                          mode=payload.get("mode", "exact")).to_dict()


def cross_check_served(plan: workloads.ServePlan, replies: list[Any],
                       decoded: dict[int, dict[str, Any]]) -> str | None:
    """Four hot and four cold answers against a direct sweep.

    ``decoded`` maps a pool index to its first answer and ``-1 - i`` to
    the answer of cold reply ``i``.
    """
    rng = random.Random(f"serve_mixed:check:{plan.seed}")
    hot = [(plan.pool[i], decoded[i]) for i in sorted(decoded) if i >= 0]
    cold = {op.cold_index: (op.payload, decoded[-1 - i])
            for i, (op, _) in enumerate(replies) if -1 - i in decoded}
    samples = (rng.sample(hot, min(4, len(hot)))
               + rng.sample([cold[k] for k in sorted(cold)], min(4, len(cold))))
    for payload, answer in samples:
        if direct_sweep(payload) != answer:
            label = payload.get("network") or payload.get("name")
            return f"served answer for {label} differs from codesign_sweep"
    return None


def generate(path: Path = EXPECTED) -> None:
    """Recompute the expected table over every workload universe."""
    from runners import run_case, run_column

    columns: dict[str, str] = {}
    for name in ("sweep_exact", "sweep_fast_fine"):
        for scale in workloads.SCALES:
            for col in workloads.sweep(name, 0, scale).universe():
                columns[col.id] = digest(run_column(col).to_dict())
                print(f"column {col.id}", file=sys.stderr, flush=True)
    cases: dict[str, dict[str, float]] = {}
    for scale in workloads.SCALES:
        kernels = workloads.Kernels(0, scale)
        for case in kernels.universe():
            res = run_case(case, *kernels.data(case, 0))
            cases[case.id] = case_signature(res)
            print(f"case {case.id}", file=sys.stderr, flush=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"columns": columns, "kernel_cases": cases},
                               indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
