"""Differential campaign for the schedule DSL.

Hypothesis composes random *legal* schedules from the DSL's primitives
and checks that lowering them produces machine results bit-identical
to the k-ordered fp32 reference (:func:`repro.conv.reference.gemm_fp32`)
— across shapes with ragged tails and VLEN in {512, 2048, 4096}.  That
is the DSL's core contract: a schedule changes *when* things happen,
never *what* is computed, and every legal transformation preserves the
per-element fp32 accumulation order.

The flip side is tested too: illegal schedules (misaligned vector
tiles, LMUL register overflow, vectorized reductions, unroll of
untiled axes, reduction tiles without memory-placed accumulators) must
raise :class:`ScheduleError` *before* a single instruction is emitted
— the tracer stays empty.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conv.reference import gemm_fp32, im2col_gemm_conv2d_fp32
from repro.errors import ScheduleError
from repro.kernels import gemm_kernel, im2col_kernel
from repro.kernels.buffers import GemmBuffers, Im2colBuffers
from repro.kernels.common import GemmGeometry, Im2colGeometry
from repro.rvv import Memory, RvvMachine, Tracer
from repro.schedule import VL, default_matmul_schedule, matmul_schedule
from repro.schedule.space import copy_space, matmul_space

pytestmark = pytest.mark.dsl

VLENS = (512, 2048, 4096)


def _machine(vlen: int, capture: bool = False) -> RvvMachine:
    return RvvMachine(vlen, memory=Memory(1 << 24),
                      tracer=Tracer(capture=capture))


def _run_gemm(vlen, m, kd, n, sched, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, kd)).astype(np.float32)
    b = rng.standard_normal((kd, n)).astype(np.float32)
    machine = _machine(vlen)
    geom = GemmGeometry(m=m, kd=kd, n=n, vlen_elems=vlen // 32)
    bufs = GemmBuffers.allocate(machine, geom)
    bufs.load(machine, geom, a, b)
    gemm_kernel(machine, geom, bufs, sched)
    return bufs.read_c(machine, geom), gemm_fp32(a, b)


def _run_conv(vlen, x, w, gemm_sched, copy_sched):
    """im2col + GEMM with both stages' schedules swappable (the GEMM
    reads the column matrix in place, as the shipped driver does)."""
    machine = _machine(vlen)
    c, h, wd = x.shape
    k = w.shape[0]
    ig = Im2colGeometry(c_in=c, h=h, w=wd, ksize=w.shape[2], stride=1,
                        pad=1)
    ibufs = Im2colBuffers.allocate(machine, ig)
    ibufs.load_input(machine, ig, x)
    im2col_kernel(machine, ig, ibufs, copy_sched)
    gg = GemmGeometry(m=k, kd=ig.rows, n=ig.cols, vlen_elems=vlen // 32)
    gbufs = GemmBuffers(
        a=machine.memory.alloc_f32(gg.a_size, label="gemm.a"),
        b=ibufs.cols,
        c=machine.memory.alloc_f32(gg.c_size, label="gemm.c"))
    machine.memory.write_f32(gbufs.a, w.reshape(k, -1))
    gemm_kernel(machine, gg, gbufs, gemm_sched)
    return gbufs.read_c(machine, gg).reshape(k, ig.h_out, ig.w_out)


@st.composite
def matmul_schedules(draw):
    """A random legal matmul schedule, composed via the primitives."""
    lmul = draw(st.sampled_from((1, 2, 4, 8)))
    mr = draw(st.sampled_from((1, 2, 3, 4, 8, 16)))
    if mr + 1 > 32 // lmul:
        mr = 32 // lmul - 1  # stay under the register file
    jt = draw(st.sampled_from((VL, 8, 16, 64)))
    if jt != VL and jt % (4 * lmul) != 0:
        jt = VL  # int vector tiles must be whole-register multiples
    order = draw(st.permutations(("i", "j", "k")))
    kt = draw(st.sampled_from((None, 2, 5, 8)))
    sched = (matmul_schedule()
             .tile("j", jt).vectorize("j", lmul=lmul)
             .tile("i", mr).unroll("i")
             .reorder(*order))
    if kt is not None:
        sched = sched.tile("k", kt).place("acc", "memory")
    if draw(st.booleans()):
        sched = sched.hoist_setvl()
    sched.validate()
    return sched


@pytest.mark.parametrize("vlen", VLENS)
@settings(max_examples=25, deadline=None)
@given(sched=matmul_schedules(),
       m=st.integers(1, 9), kd=st.integers(1, 12), n=st.integers(1, 50),
       seed=st.integers(0, 2**31))
def test_any_legal_schedule_is_bit_identical(vlen, sched, m, kd, n, seed):
    got, want = _run_gemm(vlen, m, kd, n, sched, seed)
    assert np.array_equal(got, want), sched.label()


@pytest.mark.parametrize("vlen", VLENS)
def test_whole_enumerated_space_is_bit_identical(vlen):
    """Every point ``repro tune`` can visit computes the same matrix."""
    for sched in matmul_space(m=7, kd=11):
        got, want = _run_gemm(vlen, 7, 11, 50, sched, seed=3)
        assert np.array_equal(got, want), sched.label()


@pytest.mark.parametrize("vlen", VLENS)
def test_scheduled_conv_matches_fp32_reference(vlen):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 9, 9)).astype(np.float32)
    w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
    want = im2col_gemm_conv2d_fp32(x, w, stride=1, pad=1)
    for gemm_sched in (None, matmul_space(m=5, kd=27)[1]):
        for copy_sched in (None, copy_space()[1]):
            got = _run_conv(vlen, x, w, gemm_sched, copy_sched)
            assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Illegal schedules: raise, never emit.
# ----------------------------------------------------------------------
def _bad_schedules():
    base = matmul_schedule().tile("j", VL).vectorize("j", lmul=1)
    return [
        # misaligned int vector tile (10 floats is not a whole register)
        ("misaligned-tile",
         matmul_schedule().tile("j", 10).vectorize("j", lmul=1)
         .tile("i", 2).unroll("i")),
        # mr+1 register groups at LMUL=8 overflow the register file
        ("lmul-overflow",
         matmul_schedule().tile("j", VL).vectorize("j", lmul=8)
         .tile("i", 8).unroll("i")),
        # no vectorized axis at all
        ("unvectorized", matmul_schedule().tile("i", 2).unroll("i")),
        # rows not unrolled into accumulators
        ("no-unroll", base.tile("i", 2)),
        # reduction tile without memory-placed accumulators
        ("ktile-register-acc",
         base.tile("i", 2).unroll("i").tile("k", 4)),
    ]


@pytest.mark.parametrize("name,sched", _bad_schedules(),
                         ids=[n for n, _ in _bad_schedules()])
def test_illegal_schedules_raise_without_emitting(name, sched):
    machine = _machine(512, capture=True)
    geom = GemmGeometry(m=6, kd=9, n=40, vlen_elems=16)
    bufs = GemmBuffers.allocate(machine, geom)
    rng = np.random.default_rng(0)
    bufs.load(machine, geom,
              rng.standard_normal((6, 9)).astype(np.float32),
              rng.standard_normal((9, 40)).astype(np.float32))
    with pytest.raises(ScheduleError):
        gemm_kernel(machine, geom, bufs, sched)
    assert machine.tracer.events == []
    assert machine.tracer.by_class == {}


@pytest.mark.parametrize("mr", [1, 4, 8, 16])
def test_default_schedule_is_the_primitive_chain(mr):
    chain = (matmul_schedule()
             .tile("j", VL).vectorize("j", lmul=1)
             .tile("i", mr).unroll("i")
             .reorder("j", "i", "k"))
    assert default_matmul_schedule(mr) == chain.validate()
    assert default_matmul_schedule(mr) is not default_matmul_schedule(mr)


def test_schedules_are_hashable_immutable_values():
    sched = default_matmul_schedule()
    chain = (matmul_schedule()
             .tile("i", 8).tile("j", VL).vectorize("j", lmul=1)
             .unroll("i"))
    assert chain == sched and hash(chain) == hash(sched)
    assert list(chain.tiles) == ["i", "j"]  # insertion order is kept
    assert len({sched, chain, default_matmul_schedule(4)}) == 2
    with pytest.raises(TypeError):
        sched.tiles["j"] = 4  # type: ignore[index]
    with pytest.raises(TypeError):
        sched.tiles.update(k=8)  # type: ignore[attr-defined]
    assert sched.tile("k", 8).tiles == {"j": VL, "i": 8, "k": 8}
    assert sched.tiles == {"j": VL, "i": 8}
    assert pickle.loads(pickle.dumps(sched)) == sched
    assert repr(sched.tiles) == "{'j': 'vl', 'i': 8}"


def test_matmul_space_is_duplicate_free_default_first():
    space = matmul_space(6, 27)
    assert space[0] == default_matmul_schedule()
    assert len(set(space)) == len(space)


def test_illegal_primitive_compositions_raise():
    base = matmul_schedule()
    with pytest.raises(ScheduleError):
        base.vectorize("k")  # reduction axis
    with pytest.raises(ScheduleError):
        base.vectorize("i")  # not the designated vector axis
    with pytest.raises(ScheduleError):
        base.tile("i", 4).tile("i", 2)  # double tiling
    with pytest.raises(ScheduleError):
        base.tile("j", VL).vectorize("j", lmul=3)  # LMUL not in {1,2,4,8}
    with pytest.raises(ScheduleError):
        base.reorder("i", "j")  # not a permutation of all axes
    with pytest.raises(ScheduleError):
        base.unroll("i")  # unrolling an untiled axis
    with pytest.raises(ScheduleError):
        base.tile("j", VL).unroll("j")  # unrolling the vector axis
    with pytest.raises(ScheduleError):
        base.place("acc", "l2")  # unknown placement
    with pytest.raises(ScheduleError):
        base.tile("i", 0)  # degenerate tile
