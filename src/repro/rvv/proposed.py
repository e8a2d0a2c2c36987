"""Proposed RVV extensions — the paper's "Opportunities" quantified.

Section 3 of the paper advocates two additions to the standard "V"
extension after fighting their absence:

1. **Vector transpose instructions** ("we advocate for an extension of
   the RISC-VV with vector transpose instructions, that would eliminate
   the need for memory operations") — the EPI toolchain ships custom
   2-vector transposes, but the standard has none, forcing the
   Algorithm 3/4 memory workarounds.
2. Better support for the sub-vector manipulation that tuple
   multiplication needs (today: indexed loads or slide chains).

:class:`RvvPlusMachine` models a hypothetical RVV implementation with
both: ``vtrn4`` (a 4-register interleave, the native form of the
Figure 2 transpose) and ``vrep4`` (quad replication in one register
permute).  Both are single register-permute instructions — no memory
operations, no index vectors, no slide chains.  The ablation bench
``bench_ablation_rvv_extensions.py`` quantifies what the proposal buys.

Nothing outside this module depends on the extension: kernels accept
any machine and the native kernel variants check for the capability
explicitly, mirroring how real code would guard on a custom extension.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import IllegalInstructionError
from repro.kernels.common import QUAD
from repro.rvv.machine import RvvMachine
from repro.rvv.prims import binds


class RvvPlusMachine(RvvMachine):
    """RVV 1.0 plus the paper's proposed data-movement instructions."""

    #: Capability flag kernels test for.
    HAS_PROPOSED_EXTENSIONS = True

    @binds
    def vrep4_vi(self, vd: int, vs: int, q: int) -> Callable[[], None]:
        """Proposed: replicate quad ``q`` of ``vs`` across all lanes.

        ``vd[i] = vs[4q + (i % 4)]`` — the operation Algorithms 1
        (indexed load) and 2 (slide chain) emulate.  One in-register
        permute; no memory access.
        """
        vl = self._check_vrep4(vd, vs, q)
        s, d = self._f32(vs), self._f32(vd)[:vl]
        lanes = QUAD * q + np.arange(vl) % QUAD

        def run() -> None:
            np.take(s, lanes, out=d)
        return run

    def _check_vrep4(self, vd: int, vs: int, q: int) -> int:
        vl = self._require_vl()
        if vd == vs:
            raise IllegalInstructionError(
                "vrep4 destination cannot overlap its source"
            )
        if q < 0 or QUAD * q + QUAD > self.vlmax:
            raise IllegalInstructionError(
                f"vrep4 quad index {q} out of range for VLMAX={self.vlmax}"
            )
        return vl

    def vtrn4_vv(
        self, vd: tuple[int, int, int, int], vs: tuple[int, int, int, int]
    ) -> None:
        """Proposed: 4-register interleave (the Figure 2 transpose).

        ``vd[g][4m + r] = vs[r][g * vl/4 + m]`` — what Algorithms 3/4
        emulate with buffer round-trips.  Issues four register-permute
        instructions (one per destination), zero memory operations.
        """
        vl = self._check_vtrn4(vd, vs)
        src = np.stack([self._f32(r)[:vl].copy() for r in vs])
        out = (
            src.reshape(QUAD, QUAD, vl // QUAD)
            .transpose(1, 2, 0)
            .reshape(QUAD, vl)
        )
        for g in range(QUAD):
            self._vtrn4_row(vd[g], vs, out[g])

    def _check_vtrn4(self, vd: tuple[int, ...], vs: tuple[int, ...]) -> int:
        vl = self._require_vl()
        if vl % QUAD:
            raise IllegalInstructionError(
                f"vtrn4 requires vl divisible by 4, got {vl}"
            )
        if set(vd) & set(vs) or len(set(vd)) != QUAD or len(set(vs)) != QUAD:
            raise IllegalInstructionError(
                "vtrn4 needs four distinct destinations disjoint from sources"
            )
        return vl

    @binds
    def _vtrn4_row(self, vd: int,
                   vs: tuple[int, ...]) -> Callable[[np.ndarray], None]:
        """Write one destination of a ``vtrn4``."""
        d = self._f32(vd)

        def run(row: np.ndarray) -> None:
            d[: row.size] = row
        return run


def has_proposed_extensions(machine) -> bool:
    """Capability check for the proposed instructions."""
    return getattr(machine, "HAS_PROPOSED_EXTENSIONS", False)
