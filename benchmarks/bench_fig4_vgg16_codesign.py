"""Experiment F4 — Figure 4: VGG16 runtime over the VLEN x L2 grid.

Paper findings: ~1.4x speedup from 512- to 4096-bit vectors with no
significant gain beyond 2048 bits; ~1.3x from growing the L2 to 64 MB,
with no significant gain beyond.

The grid comes from the shared ``vgg_sweep`` fixture, which honours
``REPRO_SWEEP_WORKERS`` / ``REPRO_SWEEP_CHECKPOINT`` (parallel,
resumable sweeps — see benchmarks/README.md).
"""

import time

from benchmarks.conftest import record
from repro.codesign import (
    MISS_RATE_BOUND,
    PAPER_HEADLINES,
    Comparison,
    backend_timing_report,
    codesign_sweep,
    comparison_table,
    runtime_figure,
)
from repro.nets import vgg16_layers
from repro.nets.inference import simulate_inference
from repro.sim.system import SystemConfig


def test_fig4_vgg16_codesign(benchmark, vgg_sweep):
    sweep = benchmark.pedantic(lambda: vgg_sweep, rounds=1, iterations=1)
    print()
    print(runtime_figure(sweep, "Figure 4 — VGG16 (Winograd)"))
    vl_2048 = sweep.speedup(2048, 1)
    vl_beyond = sweep.seconds(2048, 1) / sweep.seconds(4096, 1)
    l2_64 = sweep.seconds(512, 1) / sweep.seconds(512, 64)
    l2_beyond = sweep.seconds(512, 64) / sweep.seconds(512, 256)
    comps = [
        Comparison("VL speedup 512->2048 bits @ 1 MB",
                   PAPER_HEADLINES["vgg_vl_speedup_512_to_2048"], vl_2048),
        Comparison("VL gain 2048->4096 (paper: none)", 1.0, vl_beyond),
        Comparison("L2 speedup 1->64 MB @ 512-bit",
                   PAPER_HEADLINES["vgg_l2_speedup_1_to_64mb"], l2_64),
        Comparison("L2 gain 64->256 MB (paper: none)", 1.0, l2_beyond),
    ]
    print(comparison_table(comps, "paper-vs-measured:"))
    record(benchmark, vl_speedup_2048=round(vl_2048, 2),
           vl_gain_beyond_2048=round(vl_beyond, 2),
           l2_speedup_64=round(l2_64, 2),
           l2_gain_beyond_64=round(l2_beyond, 2))
    # Shape: vector length helps through 2048 bits, then the gain
    # flattens (slide-replication chains grow with VL); L2 helps to
    # 64 MB and flattens beyond.
    assert vl_2048 > 1.25
    assert vl_beyond < vl_2048 ** 0.5  # diminishing returns
    assert l2_64 > 1.05
    assert l2_beyond < l2_64


def test_fig4_fastpath_vs_exact(benchmark, vgg_sweep):
    """Fast-vs-exact backend on the Figure 4 grid: the stack-distance
    fast path must reproduce the exact best (VLEN, L2) point, and both
    backends must beat the unamortized axis cost (len(l2_mbs)
    independent simulations) — each by recording the column once and
    replaying the whole L2 axis from that recording."""
    layers = vgg16_layers()
    l2s = vgg_sweep.l2_mbs
    # The unamortized baseline: one fresh exact simulation, scaled to
    # the axis length.
    t0 = time.perf_counter()
    simulate_inference("vgg16", layers,
                       SystemConfig(vlen_bits=512, l2_mb=l2s[0]))
    axis_cost = (time.perf_counter() - t0) * len(l2s)
    # Time the exact L2 axis at the narrowest (most expensive) VLEN —
    # this is the benchmark target.
    t0 = time.perf_counter()
    exact_col = benchmark.pedantic(
        lambda: codesign_sweep("vgg16", layers, vlens=(512,), l2_mbs=l2s,
                               mode="exact"),
        rounds=1, iterations=1)
    exact_seconds = time.perf_counter() - t0
    # The fast column, min of 3 runs (timer noise only ever slows a
    # run down; the minimum is the honest cost of the fast column).
    fast_seconds = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fast_col = codesign_sweep("vgg16", layers, vlens=(512,),
                                  l2_mbs=l2s, mode="fast")
        fast_seconds = min(fast_seconds, time.perf_counter() - t0)
    # Accuracy over the full grid, against the session's exact sweep.
    fast_full = codesign_sweep("vgg16", layers, vlens=vgg_sweep.vlens,
                               l2_mbs=l2s, mode="fast")
    deltas = {
        p: abs(fast_full.at(*p).total.l2_miss_rate
               - vgg_sweep.at(*p).total.l2_miss_rate)
        for p in vgg_sweep.points
    }
    max_delta = max(deltas.values())
    best_agrees = fast_full.best() == vgg_sweep.best()
    exact_speedup = axis_cost / exact_seconds
    fast_speedup = axis_cost / fast_seconds
    print()
    print(backend_timing_report("VGG16 @ 512-bit", exact_seconds,
                                fast_seconds, len(l2s), max_delta,
                                best_agrees))
    record(benchmark, exact_axis_seconds=round(exact_seconds, 2),
           fast_axis_seconds=round(fast_seconds, 2),
           unamortized_axis_seconds=round(axis_cost, 2),
           exact_axis_speedup=round(exact_speedup, 2),
           fast_axis_speedup=round(fast_speedup, 2),
           max_miss_rate_delta=round(max_delta, 4),
           best_exact=list(vgg_sweep.best()),
           best_fast=list(fast_full.best()))
    # The exact column is deterministic: it must reproduce the session
    # sweep's points bit for bit.
    for l2 in l2s:
        assert exact_col.at(512, l2) == vgg_sweep.at(512, l2)
    # Acceptance: same best point, both backends amortize the axis
    # (well past half its unamortized cost even with timer noise),
    # bounded fast-path error.
    assert best_agrees, (fast_full.best(), vgg_sweep.best())
    assert exact_speedup >= 2.0, exact_speedup
    assert fast_speedup >= 2.0, fast_speedup
    assert max_delta <= MISS_RATE_BOUND
    # The fast column agrees with the fast full grid on shared points.
    for l2 in l2s:
        assert fast_col.at(512, l2) == fast_full.at(512, l2)
