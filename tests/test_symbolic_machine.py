"""Abstract-vs-concrete equivalence of the symbolic interpreter.

The static audit's claim is not "approximately the same program" — it
is that abstract interpretation at a symbolic VLEN records *the very
trace* a concrete capture run would have recorded.  These tests
materialize the parametric program of the regime covering a concrete
VLEN, collapse every symbolic value at that domain point, and compare
it field-by-field (mnemonics, operands, configuration state, memory
footprints, sequence stamps) against an actual execute-and-lift run.
They also pin the compact trace encoding itself: interning really
compresses, ``instr_at`` agrees with full materialization, and
``stats_at`` reproduces a concrete counts-only tracer bit-exactly.
"""

import numpy as np
import pytest

from repro.analysis import find_spec
from repro.analysis.audit import MACHINE_FLAVORS, _lift_run
from repro.analysis.symbolic import interpret_kernel
from repro.analysis.symbolic.core import SymInt
from repro.analysis.symbolic.machine import ABSTRACT_FLAVORS
from repro.rvv import Memory, Tracer
from repro.rvv.prims import PRIMS

#: (kernel, flavor, concrete VLEN) triples covering every access shape:
#: unit/strided/indexed memory, slides, gathers, LMUL>1 groups, whilelt
#: configuration, and the rvv+ tuple ISA extension.  Every ``fast``
#: registry spec appears at least once.
CASES = [
    ("gemm", "rvv", 512),
    ("gemm", "sve", 4096),
    ("im2col", "rvv", 1024),
    ("transpose4/indexed", "rvv", 512),
    ("transpose4/native", "rvv+", 2048),
    ("tuple_mult/slideup", "rvv", 2048),
    ("streaming/axpy@lmul2", "rvv", 512),
    ("winograd/input_transform", "sve", 1024),
    ("tuple_mult/indexed", "sve", 512),
    ("tuple_mult/slideup_log", "rvv", 512),
    ("tuple_mult/native", "rvv+", 512),
    ("transpose4/strided", "sve", 1024),
    ("winograd/filter_transform", "rvv", 512),
    ("winograd/output_transform", "rvv", 2048),
    ("direct1x1", "rvv", 512),
    ("direct1x1@s2", "sve", 1024),
    ("streaming/memcpy", "sve", 512),
    ("streaming/axpy", "rvv", 1024),
    ("streaming/dot", "rvv", 512),
    ("sched/gemm@ijk-lmul4", "rvv", 1024),
    ("sched/gemm@ktile", "sve", 512),
    ("sched/im2col@yrx-xtile", "rvv", 512),
]


def _static_program(spec, flavor, vlen):
    audit = interpret_kernel(spec, flavor)
    rg = audit.regime_of(vlen)
    return rg, rg.program, rg.point_index(vlen)


def _val(ctx, pi, x):
    if x is None:
        return None
    if isinstance(x, SymInt):
        return ctx.value_at(x, pi)
    return int(x)


def _assert_same_instr(ctx, pi, sym, conc, where):
    assert sym.opclass is conc.opclass, where
    assert sym.lmul == conc.lmul, where
    assert sym.event.eew == conc.event.eew, where
    assert _val(ctx, pi, sym.event.elems) == conc.event.elems, where
    assert _val(ctx, pi, sym.vl) == conc.vl, where
    assert sym.sew == conc.sew, where
    assert sym.cfg_lmul == conc.cfg_lmul, where
    so, co = sym.ops, conc.ops
    assert (so is None) == (co is None), where
    if so is not None:
        assert so.mnemonic == co.mnemonic, where
        assert so.vd == co.vd and so.vs == co.vs, where
        assert so.vidx == co.vidx and so.merges == co.merges, where
        assert _val(ctx, pi, so.imm) == co.imm, where
        assert _val(ctx, pi, so.avl) == co.avl, where
    sm, cm = sym.mem, conc.mem
    assert (sm is None) == (cm is None), where
    if sm is not None:
        assert sm.kind == cm.kind and sm.is_load == cm.is_load, where
        assert sm.ebytes == cm.ebytes, where
        assert _val(ctx, pi, sm.base) == cm.base, where
        assert _val(ctx, pi, sm.elems) == cm.elems, where
        assert _val(ctx, pi, sm.stride) == cm.stride, where
        assert sm.seq == cm.seq, where
        if cm.offsets is not None:
            assert sm.sym_offsets is not None, where
            np.testing.assert_array_equal(
                sm.sym_offsets.at(pi), np.asarray(cm.offsets), err_msg=where)


@pytest.mark.parametrize("kernel,flavor,vlen", CASES)
def test_abstract_trace_is_bit_identical_to_concrete(kernel, flavor, vlen):
    spec = find_spec(kernel)
    concrete = _lift_run(spec, flavor, vlen)
    rg, program, pi = _static_program(spec, flavor, vlen)
    ctx = rg.ctx
    assert len(program) == len(concrete), (
        f"{kernel}[{flavor}]@{vlen}: {len(program)} abstract instrs vs "
        f"{len(concrete)} concrete")
    for sym, conc in zip(program, concrete):
        _assert_same_instr(
            ctx, pi, sym, conc,
            f"{kernel}[{flavor}]@{vlen} instr {conc.index}: "
            f"{conc.disasm()}")
    # The declared memory extents match label-for-label and byte-for-byte.
    assert [(e.label, _val(ctx, pi, e.base), _val(ctx, pi, e.size))
            for e in program.extents] == \
           [(e.label, e.base, e.size) for e in concrete.extents]


@pytest.mark.parametrize("kernel,flavor,vlen", [
    ("gemm", "rvv", 512),
    ("streaming/dot", "sve", 2048),
    ("tuple_mult/native", "rvv+", 8192),
])
def test_stats_fold_matches_concrete_counts_only_tracer(kernel, flavor, vlen):
    spec = find_spec(kernel)
    machine = MACHINE_FLAVORS[flavor](
        vlen, memory=Memory(1 << 26), tracer=Tracer(capture=False))
    spec.run(machine)
    rg, _, pi = None, None, None
    audit = interpret_kernel(spec, flavor)
    rg = audit.regime_of(vlen)
    stats = rg.strace.stats_at(rg.point_index(vlen))
    assert set(stats) == set(machine.tracer.by_class)
    for opclass, actual in machine.tracer.by_class.items():
        predicted = stats[opclass]
        for m in ("instrs", "elems", "flops", "bytes_loaded", "bytes_stored"):
            assert getattr(predicted, m) == getattr(actual, m), (
                f"{kernel}[{flavor}]@{vlen} {opclass.value}.{m}")


def test_interning_compresses_the_stream():
    """The compact encoding is the speed story: sigs << dynamic ops."""
    audit = interpret_kernel(find_spec("gemm"), "rvv")
    for rg in audit.regimes:
        n_ops = len(rg.strace)
        n_sigs = len(rg.strace.sigs)
        assert n_sigs < n_ops / 2, (
            f"interning should fold loop iterations: {n_sigs} sigs for "
            f"{n_ops} dynamic ops")


def test_instr_at_agrees_with_full_materialization():
    audit = interpret_kernel(find_spec("streaming/axpy"), "rvv")
    rg = audit.regimes[0]
    program = rg.program
    for pos in {0, 1, len(program) // 2, len(program) - 1}:
        single = rg.strace.instr_at(pos)
        full = program[pos]
        assert single.index == full.index == pos
        assert single.disasm() == full.disasm()
        assert single.vl is full.vl and single.sew == full.sew


def test_interpretation_never_touches_registers_or_memory(monkeypatch):
    """Zero-execution guarantee: no register file, no concrete memory."""
    def boom(*a, **k):
        raise AssertionError("static path constructed concrete state")

    monkeypatch.setattr("repro.rvv.registers.VRegFile.__init__", boom)
    monkeypatch.setattr("repro.rvv.memory.Memory.__init__", boom)
    for kernel, flavor in [("gemm", "rvv"), ("gemm", "sve"),
                           ("tuple_mult/native", "rvv+")]:
        audit = interpret_kernel(find_spec(kernel), flavor)
        assert audit.regimes, f"{kernel}[{flavor}] produced no regimes"


@pytest.mark.parametrize("flavor", sorted(ABSTRACT_FLAVORS))
def test_abstract_machines_run_every_primitive_per_call(flavor):
    """The abstract machines subclass the concrete ones; none of their
    primitives may resolve to a concrete binder."""
    cls = ABSTRACT_FLAVORS[flavor]
    bound = [name for name in PRIMS
             if getattr(getattr(cls, name, None), "binder", None) is not None]
    assert bound == []


def test_regimes_partition_the_domain():
    audit = interpret_kernel(find_spec("gemm"), "rvv")
    seen = [v for rg in audit.regimes for v in rg.vlens]
    assert sorted(seen) == sorted(set(seen)), "regimes must not overlap"
    assert sorted(seen + list(audit.unsupported)) == list(audit.domain)
    # Different regimes really are structurally different programs.
    lengths = {rg.vlens: len(rg.strace) for rg in audit.regimes}
    assert len(set(lengths.values())) > 1, (
        f"gemm strip-mines, so instruction counts must vary: {lengths}")


def test_unsupported_vlens_record_the_refusal():
    """Winograd's geometry check rejects tiny VLENs; that is a verdict,
    not a crash, and the reason string names the exception."""
    audit = interpret_kernel(find_spec("tuple_mult/slideup"), "rvv")
    assert audit.unsupported, "expected small VLENs to be rejected"
    for vlen, reason in audit.unsupported.items():
        assert vlen not in audit.supported_vlens
        assert ":" in reason  # "ExceptionName: message"
