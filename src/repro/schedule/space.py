"""Schedule-space enumeration for the tuner.

The space is the cross product of the DSL's legal primitive choices
for one statement, filtered by the same legality rules the primitives
enforce (so enumeration can never produce a :class:`ScheduleError`):

matmul: ``mr`` (unrolled accumulator rows) x LMUL x outer loop order
x optional reduction tile (with memory-placed accumulators) x vsetvl
placement.  copy: LMUL x loop order.

Enumeration order is deterministic; when a candidate budget is given,
a seeded :class:`numpy.random.Generator` subsamples *after* the
always-included default schedule — ``repro tune`` results are exactly
reproducible from (seed, budget).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.common import LMUL_CHOICES
from repro.schedule.ir import (
    NUM_VREGS,
    VL,
    Schedule,
    copy_schedule,
    default_copy_schedule,
    default_matmul_schedule,
    matmul_schedule,
)

#: Unrolled-row candidates (the microkernel's mr).
MR_CHOICES: tuple[int, ...] = (1, 2, 4, 8, 16)

#: Outer-order candidates for matmul (reduction position only takes
#: effect when the reduction is tiled).
MATMUL_ORDERS: tuple[tuple[str, str, str], ...] = (
    ("j", "i", "k"),
    ("i", "j", "k"),
    ("k", "j", "i"),
)

#: Reduction-tile candidates (None = unblocked reduction).
KTILE_CHOICES: tuple[int | None, ...] = (None, 8, 32)


def matmul_space(
    m: int,
    kd: int,
    mr_default: int = 8,
) -> list[Schedule]:
    """Every legal matmul schedule point; the default comes first."""
    out = {default_matmul_schedule(mr_default): None}  # ordered set
    for lmul in LMUL_CHOICES:
        for mr in MR_CHOICES:
            if mr + 1 > NUM_VREGS // lmul:
                continue  # LMUL register overflow
            if mr > m:
                continue  # blocks beyond the row extent are pure tails
            for order in MATMUL_ORDERS:
                for kt in KTILE_CHOICES:
                    if kt is not None and kt >= kd:
                        continue
                    if kt is None and order[0] == "k":
                        continue  # untiled k never appears in the order
                    sched = (matmul_schedule()
                             .tile("j", VL).vectorize("j", lmul=lmul)
                             .tile("i", mr).unroll("i")
                             .reorder(*order))
                    if kt is not None:
                        sched = sched.tile("k", kt).place("acc", "memory")
                    sched = sched.hoist_setvl()
                    out.setdefault(sched.validate())
    return list(out)


def copy_space() -> list[Schedule]:
    """Every legal im2col-copy schedule point; the default comes first."""
    out = [default_copy_schedule()]
    for lmul in LMUL_CHOICES:
        for order in (("r", "y", "x"), ("y", "r", "x")):
            sched = (copy_schedule()
                     .vectorize("x", lmul=lmul)
                     .reorder(*order))
            if sched not in out:
                out.append(sched)
    return out


def sample_space(
    candidates: list[Schedule], budget: int | None, seed: int
) -> list[Schedule]:
    """Deterministically subsample to ``budget`` candidates.

    The first candidate (the default schedule) is always kept — the
    tuner's "never worse than the shipped kernel" guarantee rests on
    the default being in the exactly-simulated set.
    """
    if budget is None or budget >= len(candidates) or budget < 1:
        return list(candidates)
    rng = np.random.default_rng(seed)
    rest = candidates[1:]
    picks = rng.choice(len(rest), size=budget - 1, replace=False)
    return [candidates[0]] + [rest[int(i)] for i in sorted(picks)]
