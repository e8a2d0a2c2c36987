"""Serve-layer load benchmark: hot queries must be store-bound.

The tentpole claim of the serving layer is that a repeated co-design
query never re-enters the simulator: a hot grid point is answered from
the content-addressed store in well under a millisecond.  This bench
warms a service with one cold query, then measures

- the raw store hit (``ResultStore.get_or_compute`` on a hot key), and
- a full repeat query through ``CodesignService.handle_query``
  (per point, including event streaming into a sink),

and asserts the sub-millisecond bound on both.  Wall-clock assertions
are machine-dependent, so the whole module is gated behind
``REPRO_RUN_WALL_BENCH=1`` like the other wall-time guards.
"""

import asyncio
import os
import time

import pytest

from benchmarks.conftest import record
from repro.obs import METRICS, MemorySink
from repro.serve import (
    CodesignService,
    Query,
    ResultStore,
    point_key,
)

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_RUN_WALL_BENCH"),
    reason="wall-time guard; set REPRO_RUN_WALL_BENCH=1 to run",
)

PAYLOAD = {"network": "vgg16", "max_layers": 2,
           "vlens": [512, 1024], "l2_mbs": [1, 16], "mode": "fast"}
REPEATS = 200

#: Interleaved rounds per arm of the metrics-overhead comparison.
OVERHEAD_ROUNDS = 8


def test_hot_query_is_store_bound(benchmark):
    query = Query.from_payload(PAYLOAD)
    service = CodesignService(ResultStore(max_bytes=1 << 22), workers=2)

    async def warm():
        return await service.handle_query(query, MemorySink())

    async def repeat(n):
        start = time.perf_counter()
        for _ in range(n):
            await service.handle_query(query, MemorySink())
        return time.perf_counter() - start

    asyncio.run(warm())

    # Raw store hit: the content-addressed lookup itself.
    key = point_key(query, 512, 1)

    def fail():
        raise AssertionError("hot key must not compute")

    t0 = time.perf_counter()
    for _ in range(REPEATS):
        payload, source = service.store.get_or_compute(key, fail)
        assert source == "store"
    store_hit_us = (time.perf_counter() - t0) / REPEATS * 1e6

    # Full repeat query, amortized per point (4-point grid).
    seconds = asyncio.run(repeat(REPEATS))
    query_ms = seconds / REPEATS * 1e3
    point_ms = query_ms / len(query.points)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    record(benchmark, store_hit_us=round(store_hit_us, 2),
           hot_query_ms=round(query_ms, 3),
           hot_point_ms=round(point_ms, 4))
    print(f"\nstore hit: {store_hit_us:.1f}us  "
          f"hot query: {query_ms:.3f}ms  per point: {point_ms:.4f}ms")

    assert store_hit_us < 1000, (
        f"store hit took {store_hit_us:.0f}us; the content-addressed "
        f"lookup must stay under a millisecond"
    )
    assert point_ms < 1.0, (
        f"hot grid point took {point_ms:.3f}ms through the service; "
        f"repeat queries must be store-bound (<1ms per point)"
    )


def test_metrics_overhead_on_hot_path_is_bounded(benchmark):
    """Telemetry must be observation-only in cost terms too.

    The same hot repeat-query loop is timed with the process metrics
    registry enabled and disabled (``METRICS.disable()`` turns every
    mutation into a no-op on the same code path); the instrumented run
    must stay within 10% of the uninstrumented one.  Best-of-N per arm
    over :data:`OVERHEAD_ROUNDS` interleaved rounds, the arm that runs
    first alternating between rounds, to keep scheduler noise and
    warm-up order out of the ratio.
    """
    query = Query.from_payload(PAYLOAD)
    service = CodesignService(ResultStore(max_bytes=1 << 22), workers=2)

    async def drive(n):
        start = time.perf_counter()
        for _ in range(n):
            await service.handle_query(query, MemorySink())
        return time.perf_counter() - start

    asyncio.run(drive(1))  # warm: the grid lands in the store
    asyncio.run(drive(20))  # warm the loop itself

    times: dict[bool, list[float]] = {True: [], False: []}
    try:
        for r in range(OVERHEAD_ROUNDS):
            for enabled in ((True, False) if r % 2 == 0 else (False, True)):
                (METRICS.enable if enabled else METRICS.disable)()
                times[enabled].append(asyncio.run(drive(REPEATS)))
    finally:
        METRICS.enable()
    enabled_s, disabled_s = times[True], times[False]

    on_ms = min(enabled_s) / REPEATS * 1e3
    off_ms = min(disabled_s) / REPEATS * 1e3
    ratio = on_ms / off_ms

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    record(benchmark, hot_query_metrics_on_ms=round(on_ms, 4),
           hot_query_metrics_off_ms=round(off_ms, 4),
           metrics_overhead_ratio=round(ratio, 4))
    print(f"\nhot query with metrics: {on_ms:.4f}ms  "
          f"without: {off_ms:.4f}ms  ratio: {ratio:.3f}")

    assert ratio < 1.10, (
        f"metrics add {100 * (ratio - 1):.1f}% to the hot store-hit "
        f"query; telemetry must stay under 10%"
    )
