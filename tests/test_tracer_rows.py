"""The signature-interned tracer, the register view cache and bulk line IDs.

:class:`repro.rvv.Tracer` interns one signature per distinct
instruction and derives its per-class counts, its events and the
replayed line stream from the signatures and their per-occurrence
payloads.  These tests hold each derived view to the definition it
replaced:

- :meth:`Tracer.line_stream` against :meth:`MemAccess.line_addresses`
  per event, and :meth:`Simulator.run_trace` against a per-event replay
  through :class:`CacheHierarchy`;
- ``events`` / ``by_class`` / ``mem_events()`` against an eager model
  that stamps and counts every record as it arrives;
- :func:`save_trace` of a captured Winograd kernel against a pinned
  digest of the file the eager tracer wrote.
"""

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VectorStateError
from repro.isa import FLOPS_PER_ELEM, OpClass
from repro.kernels import winograd_conv2d_sim
from repro.rvv import (
    InstrEvent,
    MemAccess,
    Memory,
    OpStats,
    RvvMachine,
    Tracer,
    VRegFile,
    load_trace,
    save_trace,
)
from repro.rvv import tracer as tracer_mod
from repro.rvv.tracer import Operands
from repro.sve import SveMachine
from repro.sim import Simulator, SystemConfig

#: Records enough to have crossed the old per-class fold buffer.
_MANY = 4096

_LOAD = {"unit": OpClass.VLOAD_UNIT, "strided": OpClass.VLOAD_STRIDED,
         "indexed": OpClass.VLOAD_INDEXED}
_STORE = {"unit": OpClass.VSTORE_UNIT, "strided": OpClass.VSTORE_STRIDED,
          "indexed": OpClass.VSTORE_INDEXED}


@st.composite
def mem_accesses(draw):
    kind = draw(st.sampled_from(["unit", "strided", "indexed"]))
    ebytes = draw(st.sampled_from([1, 2, 4, 8]))
    base = draw(st.integers(0, 1 << 16))  # unaligned bases straddle lines
    is_load = draw(st.booleans())
    if kind == "indexed":
        # Duplicate and unsorted offsets, as a quad replication makes.
        offsets = draw(st.lists(st.integers(-256, 2048), max_size=24))
        return MemAccess(kind, base, len(offsets), ebytes,
                         offsets=tuple(offsets), is_load=is_load)
    elems = draw(st.integers(0, 24))
    if kind == "unit":
        stride = ebytes
    else:
        stride = draw(st.one_of(st.just(0), st.integers(-300, 300)))
    return MemAccess(kind, base, elems, ebytes, stride=stride, is_load=is_load)


def _record_all(tracer, mems):
    for i, m in enumerate(mems):
        if i % 3 == 0:
            tracer.record(OpClass.VFMA, 4, 32)
        opclass = (_LOAD if m.is_load else _STORE)[m.kind]
        tracer.record(opclass, m.elems, 8 * m.ebytes, m)


def _per_event_stream(tracer, line_bytes):
    """The replay stream as ``run_trace`` built it, one event at a time."""
    lines = [np.empty(0, dtype=np.int64)]
    stores = [np.empty(0, dtype=bool)]
    for m in tracer.mem_events():
        ids = m.line_addresses(line_bytes)
        lines.append(ids)
        stores.append(np.full(ids.size, not m.is_load, dtype=bool))
    return np.concatenate(lines), np.concatenate(stores)


def _assert_stream_matches(tracer, line_bytes):
    lines, stores = tracer.line_stream(line_bytes)
    ref_lines, ref_stores = _per_event_stream(tracer, line_bytes)
    assert lines.dtype == np.int64 and stores.dtype == bool
    assert np.array_equal(lines, ref_lines)
    assert np.array_equal(stores, ref_stores)


class TestLineStream:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(mem_accesses(), max_size=30),
           st.sampled_from([4, 16, 64, 128]),
           st.integers(1, 80))
    def test_bulk_equals_per_event_line_addresses(self, mems, line_bytes,
                                                  chunk):
        tracer = Tracer(capture=True)
        _record_all(tracer, mems)
        # Small chunks put many chunk boundaries inside one trace.
        with mock.patch.object(tracer_mod, "LINE_CHUNK_ELEMS", chunk):
            _assert_stream_matches(tracer, line_bytes)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(mem_accesses(), max_size=30))
    def test_run_trace_equals_per_event_replay(self, mems):
        tracer = Tracer(capture=True)
        _record_all(tracer, mems)
        cfg = SystemConfig(l1_kb=1, l1_assoc=2, l2_mb=1)
        hier = cfg.hierarchy()
        hier.access(*_per_event_stream(tracer, cfg.line_bytes))
        assert Simulator(cfg).run_trace(tracer).hierarchy == hier.snapshot()

    def test_more_events_than_one_chunk(self):
        rng = np.random.default_rng(3)
        mems = []
        for i in range(5000):
            kind = ("unit", "strided", "indexed")[i % 3]
            base = int(rng.integers(0, 1 << 20))
            if kind == "indexed":
                offs = tuple(int(o) for o in rng.integers(0, 4096, 32) * 4)
                mems.append(MemAccess(kind, base, 32, 4, offsets=offs,
                                      is_load=bool(i % 2)))
            else:
                stride = 4 if kind == "unit" else int(rng.integers(-512, 512))
                mems.append(MemAccess(kind, base, 32, 4, stride=stride,
                                      is_load=bool(i % 2)))
        assert 32 * len(mems) > 2 * tracer_mod.LINE_CHUNK_ELEMS
        tracer = Tracer(capture=True)
        _record_all(tracer, mems)
        _assert_stream_matches(tracer, 64)

    def test_unaligned_bases_from_a_loaded_trace(self, tmp_path):
        path = tmp_path / "unaligned.trace"
        path.write_text(
            '{"repro_trace": 2}\n'
            '{"o": "vload_unit", "e": 16, "w": 32, "k": "unit", "b": 4158, "s": 4}\n'
            '{"o": "vstore_strided", "e": 5, "w": 32, "k": "strided", "b": 4093,'
            ' "s": -70, "l": false}\n'
            '{"o": "vload_indexed", "e": 6, "w": 32, "k": "indexed", "b": 4101,'
            ' "x": [128, 0, 60, 60, 0, 4]}\n'
            '{"o": "vload_unit", "e": 0, "w": 32, "k": "unit", "b": 4097, "s": 4}\n')
        tracer = load_trace(path)
        lines, stores = tracer.line_stream(64)
        # The strided store straddles a line boundary at its first element.
        assert lines.tolist() == [64, 65, 59, 60, 61, 62, 63, 64, 64, 65, 66]
        assert stores.tolist() == [False] * 2 + [True] * 6 + [False] * 3
        _assert_stream_matches(tracer, 64)

    @pytest.mark.parametrize("machine", [RvvMachine, SveMachine])
    def test_machine_trace_equals_per_event_line_addresses(self, machine):
        """Repeated signatures with varying bases and index offsets."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 6, 7)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        m = machine(512, memory=Memory(1 << 24), tracer=Tracer(capture=True))
        winograd_conv2d_sim(m, x, w, pad=1, variant="indexed")
        assert len(m.tracer.sigs) < len(m.tracer) / 10
        with mock.patch.object(tracer_mod, "LINE_CHUNK_ELEMS", 1000):
            _assert_stream_matches(m.tracer, 64)

    def test_empty_traces(self):
        tracer = Tracer(capture=True)
        _assert_stream_matches(tracer, 64)
        tracer.record(OpClass.VSETVL, 16, 32)
        tracer.record(OpClass.VLOAD_UNIT, 0, 32, MemAccess("unit", 4096, 0, 4, 4))
        lines, stores = tracer.line_stream(64)
        assert lines.size == 0 and stores.size == 0
        assert Simulator(SystemConfig()).run_trace(tracer).hierarchy.l1.accesses == 0

    def test_counting_tracer_has_no_stream(self):
        with pytest.raises(RuntimeError):
            Tracer(capture=False).line_stream()


# ----------------------------------------------------------------------
# Lazy tracer state against an eager model
# ----------------------------------------------------------------------
class _EagerTracer:
    """What every record did before rows: count and stamp immediately."""

    def __init__(self, capture):
        self.capture = capture
        self.events = []
        self.by_class = {}

    def record(self, opclass, elems, eew, mem=None, *, lmul=1, ops=None):
        st_ = self.by_class.setdefault(opclass, OpStats())
        st_.instrs += 1
        st_.elems += elems
        st_.flops += FLOPS_PER_ELEM.get(opclass, 0) * elems
        if mem is not None:
            if mem.is_load:
                st_.bytes_loaded += mem.bytes
            else:
                st_.bytes_stored += mem.bytes
        if self.capture:
            if mem is not None and mem.seq < 0:
                mem = dataclasses.replace(mem, seq=len(self.events), sew=eew,
                                          lmul=lmul)
            self.events.append(InstrEvent(opclass, elems, eew, mem, lmul, ops))


_OPCLASSES = [OpClass.VFMA, OpClass.VSETVL, OpClass.VLOAD_UNIT,
              OpClass.VSTORE_STRIDED, OpClass.SCALAR, OpClass.VSLIDE]
_records = st.tuples(
    st.sampled_from(_OPCLASSES), st.integers(0, 64), st.sampled_from([32, 64]),
    st.sampled_from([1, 2, 4]), st.booleans())
_actions = st.lists(st.one_of(
    st.tuples(st.just("record"), _records),
    st.sampled_from([("events",), ("by_class",), ("total",), ("mem",),
                     ("reset",)])), max_size=60)


def _apply(tracer, model, rec):
    opclass, elems, eew, lmul, with_mem = rec
    mem = None
    if with_mem:
        mem = MemAccess("unit", 4096 + 64 * elems, elems, eew // 8, eew // 8,
                        is_load=opclass is not OpClass.VSTORE_STRIDED)
    ops = Operands("vfmacc.vv", vd=lmul, vs=(elems % 32,))
    for t in (tracer, model):
        t.record(opclass, elems, eew, mem, lmul=lmul, ops=ops)


class TestLazyTracerState:
    @settings(max_examples=120, deadline=None)
    @given(_actions, st.booleans())
    def test_reads_interleaved_with_records(self, actions, capture):
        tracer, model = Tracer(capture=capture), _EagerTracer(capture)
        for action in actions:
            if action[0] == "record":
                _apply(tracer, model, action[1])
            elif action[0] == "events":
                assert tracer.events == model.events
            elif action[0] == "by_class":
                assert list(tracer.by_class.items()) == list(model.by_class.items())
            elif action[0] == "total":
                assert tracer.total_instrs == sum(
                    s.instrs for s in model.by_class.values())
            elif action[0] == "mem" and capture:
                assert list(tracer.mem_events()) == [
                    e.mem for e in model.events if e.mem is not None]
            elif action[0] == "reset":
                tracer.reset()
                model.events.clear()
                model.by_class.clear()
        assert tracer.events == model.events
        assert list(tracer.by_class.items()) == list(model.by_class.items())

    def test_events_are_built_once_and_extended(self):
        tracer = Tracer(capture=True)
        tracer.record(OpClass.VSETVL, 16, 32)
        first = tracer.events
        head = first[0]
        tracer.record(OpClass.VLOAD_UNIT, 16, 32, MemAccess("unit", 4096, 16, 4, 4))
        assert tracer.events is first and first[0] is head
        assert [e.mem.seq for e in tracer.events if e.mem] == [1]

    def test_reset(self):
        tracer = Tracer(capture=True)
        for _ in range(_MANY + 3):
            tracer.record(OpClass.VFMA, 8, 32)
        assert len(tracer.events) == _MANY + 3
        tracer.reset()
        assert tracer.events == [] and dict(tracer.by_class) == {}
        assert tracer.total_instrs == 0
        tracer.record(OpClass.VLOAD_UNIT, 4, 32, MemAccess("unit", 4096, 4, 4, 4))
        assert next(tracer.mem_events()).seq == 0
        assert tracer.by_class[OpClass.VLOAD_UNIT].bytes_loaded == 16

    def test_reset_keeps_the_active_configuration(self):
        m = RvvMachine(512, memory=Memory(1 << 20), tracer=Tracer(capture=True))
        a = m.memory.alloc_f32(64)
        m.setvl(8, lmul=2)
        m.vle32(2, a)
        m.tracer.reset()
        m.vle32(4, a)
        m.setvl(8, lmul=2)
        assert list(m.tracer.by_class) == [OpClass.VLOAD_UNIT, OpClass.VSETVL]
        mem = m.tracer.events[0].mem
        assert (mem.elems, mem.lmul, mem.seq) == (8, 2, 0)

    def test_counting_tracer_keeps_only_signatures(self):
        tracer = Tracer(capture=False)
        n = 3 * _MANY + 5
        for i in range(n):
            tracer.record(OpClass.VFMA if i % 2 else OpClass.VMOVE, 4, 32)
        assert len(tracer.sigs) == 2 and tracer.sig_ids == []
        assert tracer.total_instrs == n
        assert tracer.by_class[OpClass.VFMA].flops == 2 * 4 * (n // 2)
        assert tracer.events == []
        with pytest.raises(RuntimeError):
            next(tracer.mem_events())

    def test_classes_keep_first_recorded_order_across_folds(self):
        tracer = Tracer(capture=False)
        for _ in range(_MANY):
            tracer.record(OpClass.VFMA, 1, 32)
        tracer.record(OpClass.SCALAR, 1, 64)
        tracer.record(OpClass.VFMA, 1, 32)
        tracer.record(OpClass.VSETVL, 1, 32)
        assert list(tracer.by_class) == [OpClass.VFMA, OpClass.SCALAR,
                                         OpClass.VSETVL]

    def test_by_class_is_read_only(self):
        tracer = Tracer()
        tracer.record(OpClass.VFMA, 1, 32)
        with pytest.raises(TypeError):
            tracer.by_class[OpClass.SCALAR] = OpStats()


#: sha256 of ``save_trace`` for the indexed Winograd run below, as written
#: when every record built and stamped its event eagerly.
WINOGRAD_TRACE_SHA256 = (
    "42801f58ecf016bfa3126706d07bef1409e52b6075562a6b3784acffd0fa655a")


def test_save_trace_of_a_winograd_kernel_is_unchanged(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 6, 7)).astype(np.float32)
    w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    m = RvvMachine(512, memory=Memory(1 << 24), tracer=Tracer(capture=True))
    winograd_conv2d_sim(m, x, w, pad=1, variant="indexed")
    path = tmp_path / "winograd.trace"
    assert save_trace(m.tracer, path) == 10656
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WINOGRAD_TRACE_SHA256


# ----------------------------------------------------------------------
# Register views
# ----------------------------------------------------------------------
class TestRegisterViews:
    @pytest.mark.parametrize("idx,lmul", [(32, 1), (-1, 1), (3, 2), (6, 4), (28, 8)])
    def test_invalid_group_raises_on_every_call(self, idx, lmul):
        regs = VRegFile(512)
        for view in (regs.f32, regs.u32, regs.i32, regs.f32):
            with pytest.raises(VectorStateError):
                view(idx, lmul)

    def test_engine_rejects_invalid_group_on_every_call(self):
        m = RvvMachine(512)
        m.setvl(32, lmul=2)
        for _ in range(2):
            with pytest.raises(VectorStateError):
                m.vfmv_v_f(3, 1.0)
            with pytest.raises(VectorStateError):
                m.vfmv_v_f(32, 1.0)

    def test_views_are_cached(self):
        regs = VRegFile(512)
        assert regs.f32(5) is regs.f32(5)
        assert regs.f32(4, 2) is not regs.f32(4)

    def test_lmul_switch_returns_the_group(self):
        m = RvvMachine(512)
        lanes = m.setvl(1 << 10)
        m.vfmv_v_f(2, 1.0)
        m.vfmv_v_f(3, 2.0)
        m.setvl(1 << 10, lmul=2)
        group = m.read_f32(2)
        assert group.size == 2 * lanes
        assert np.all(group[:lanes] == 1.0) and np.all(group[lanes:] == 2.0)
        m.vfmv_v_f(2, 5.0)
        m.setvl(1 << 10)
        assert np.all(m.read_f32(3) == 5.0)

    def test_typed_views_alias_the_same_bytes(self):
        regs = VRegFile(512)
        regs.f32(7)[0] = 1.0
        assert regs.u32(7)[0] == 0x3F800000
        regs.u32(6, 2)[regs.u32(6).size] = 0x40000000  # first lane of v7
        assert regs.f32(7)[0] == 2.0
        assert regs.i32(7)[0] == 0x40000000
