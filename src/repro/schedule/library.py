"""Named non-default schedules kept under continuous audit.

The default schedules (:mod:`repro.schedule.ir`) *are* the shipped GEMM,
im2col and direct 1x1 kernels of :mod:`repro.kernels`.  The schedules
here lower to programs no default emits (LMUL-grouped accumulators,
reduction blocking with memory-placed accumulators, a tiled copy), so
:mod:`repro.analysis.audit` registers them next to the defaults on the
same harness problems, and ``tests/data/golden_schedule_*.json`` pins
the LMUL-4 GEMM listing.
"""

from __future__ import annotations

from repro.schedule.ir import Schedule, copy_schedule, matmul_schedule

LMUL4_GEMM: Schedule = (matmul_schedule()
                        .tile("j", "vl").vectorize("j", lmul=4)
                        .tile("i", 4).unroll("i")
                        .reorder("i", "j", "k").hoist_setvl())

KTILE_GEMM: Schedule = (matmul_schedule()
                        .tile("j", "vl").vectorize("j", lmul=1)
                        .tile("i", 8).unroll("i")
                        .tile("k", 4).place("acc", "memory")
                        .reorder("k", "j", "i"))

XTILE_COPY: Schedule = (copy_schedule()
                        .tile("x", 8).vectorize("x", lmul=1)
                        .reorder("y", "r", "x"))
