"""Golden disassembly fixtures for the DSL-generated kernels.

The schedule DSL is the only source of the GEMM, im2col and direct 1x1
kernels, so ``tests/data/golden_schedule_*.json`` are what pins their
programs: the full disassembly listing (and schedule descriptor) at
VLEN 512 on the audit registry's harness problems
(:mod:`repro.analysis.audit`):

- ``gemm_default``: ``gemm_kernel`` under its default schedule
  (j-strips outermost, mr=8 register accumulators, LMUL=1);
- ``gemm_ijk_lmul4``: rows outermost, LMUL=4 register groups, hoisted
  vsetvl — a program no default schedule emits;
- ``im2col_default``: ``im2col_kernel`` under its default schedule;
- ``direct1x1_default`` / ``direct1x1_s2``: ``direct1x1_kernel`` at
  stride 1 (one matmul over the whole plane) and stride 2 (one matmul
  per output row, strided input loads).

Any codegen change — instruction order, register allocation, AVL
requests, memory operands — shows up as a byte diff here.  Regenerate
deliberately after changing the lowering:
``PYTHONPATH=src python tests/test_schedule_golden.py``.
"""

import json
from pathlib import Path
from typing import Callable

import pytest

from repro.analysis.audit import (
    DEFAULT_VLENS,
    MACHINE_FLAVORS,
    KernelSpec,
    _direct1x1_harness,
    _gemm_harness,
    _im2col_harness,
    fast_specs,
)
from repro.rvv import Memory, RvvMachine, Tracer, listing
from repro.rvv.machine import VectorEngine
from repro.schedule.ir import (
    Schedule,
    default_copy_schedule,
    default_direct_schedule,
    default_matmul_schedule,
)
from repro.schedule.library import LMUL4_GEMM

pytestmark = pytest.mark.dsl

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_VLEN = 512

#: name -> (registry harness, the schedule its kernel lowers).
GOLDEN: dict[str, tuple[Callable[[VectorEngine], None], Schedule]] = {
    "gemm_default": (_gemm_harness(), default_matmul_schedule()),
    "gemm_ijk_lmul4": (_gemm_harness(LMUL4_GEMM), LMUL4_GEMM),
    "im2col_default": (_im2col_harness(), default_copy_schedule()),
    "direct1x1_default": (_direct1x1_harness(), default_direct_schedule()),
    "direct1x1_s2": (
        _direct1x1_harness(c_in=3, h=7, w=41, c_out=10, stride=2),
        default_direct_schedule()),
}
FIXTURES = {name: DATA / f"golden_schedule_{name}.json" for name in GOLDEN}


def _listing(run: Callable[[VectorEngine], None]) -> list[str]:
    machine = RvvMachine(GOLDEN_VLEN, memory=Memory(1 << 26),
                         tracer=Tracer(capture=True))
    run(machine)
    return listing(machine.tracer).splitlines()


def _payload(name: str) -> dict:
    run, sched = GOLDEN[name]
    return {
        "kernel": name,
        "vlen": GOLDEN_VLEN,
        "schedule": sched.describe(),
        "listing": _listing(run),
    }


def _serialize(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generated_program_matches_golden_fixture(name):
    stored = json.loads(FIXTURES[name].read_text())
    fresh = _payload(name)
    assert fresh["schedule"] == stored["schedule"]
    assert fresh["listing"] == stored["listing"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixture_bytes_are_stable(name):
    """The on-disk bytes equal the canonical serialization exactly."""
    stored_text = FIXTURES[name].read_text()
    assert stored_text == _serialize(json.loads(stored_text))
    assert stored_text == _serialize(_payload(name))


def test_goldens_differ_from_each_other():
    """The two GEMM schedules really pin different programs."""
    a = json.loads(FIXTURES["gemm_default"].read_text())
    b = json.loads(FIXTURES["gemm_ijk_lmul4"].read_text())
    assert a["listing"] != b["listing"]
    assert a["schedule"]["lmul"] == 1
    assert b["schedule"]["lmul"] == 4


def _spec_listing(spec: KernelSpec, vlen: int) -> list[str]:
    machine = MACHINE_FLAVORS[spec.machines[0]](
        vlen, memory=Memory(1 << 26), tracer=Tracer(capture=True))
    spec.run(machine)
    return listing(machine.tracer).splitlines()


def test_no_two_fast_specs_emit_the_same_listing():
    """A registry entry that duplicates another's program audits
    nothing new.  Each fast spec runs on its first machine flavor at
    VLEN 512; a pair that collides there must differ at another audited
    VLEN (``tuple_mult/slideup_log`` equals ``tuple_mult/slideup`` at
    512 bits, where four quads make the log-step chain the linear one).
    """
    seen: dict[tuple[str, ...], KernelSpec] = {}
    for spec in fast_specs():
        key = tuple(_spec_listing(spec, GOLDEN_VLEN))
        other = seen.setdefault(key, spec)
        if other is not spec:
            assert any(_spec_listing(spec, v) != _spec_listing(other, v)
                       for v in DEFAULT_VLENS if v != GOLDEN_VLEN), (
                f"{spec.name} duplicates {other.name}")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, path in FIXTURES.items():
        path.write_text(_serialize(_payload(name)))
        print(f"wrote {path}")
