"""Validation of the analytical models against functional traces.

This enforces the DESIGN.md trace-validation contract:
- instruction counts must match the tracer *exactly*;
- cache-line access counts must match within 2%;
- miss counts and cycles must track the exact trace-driven simulation
  within the documented tolerances on small layers (the model's worst
  case — boundary effects loom largest there).
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.isa import OpClass

from repro.kernels import (
    INDEXED,
    SLIDEUP,
    SLIDEUP_LOG,
    GemmBuffers,
    GemmGeometry,
    Im2colBuffers,
    Im2colGeometry,
    WinogradBuffers,
    WinogradGeometry,
    filter_transform,
    gemm_kernel,
    im2col_kernel,
    input_transform,
    output_transform,
    tuple_multiplication,
)
from repro.model import (
    COLD,
    PhaseModel,
    evaluate_hierarchy,
    filter_transform_model,
    gemm_model,
    im2col_model_for,
    input_transform_model,
    output_transform_model,
    simulate_layer,
    stats_from_model,
    tuple_mult_model,
    winograd_layer_model,
)
from repro.model.traffic import CondensedTraffic, lines_per_access
from repro.conv import ConvLayerSpec
from repro.nets import simulate_inference
from repro.rvv import Memory, RvvMachine, Tracer, assert_counts_match
from repro.schedule import VL, matmul_schedule, matmul_space
from repro.sim import Simulator, SystemConfig


def build_winograd(c, k, h, w, vlen, capture=False):
    geom = WinogradGeometry(c_in=c, h=h, w=w, c_out=k, pad=1, vlen_elems=vlen // 32)
    m = RvvMachine(vlen, memory=Memory(1 << 27), tracer=Tracer(capture=capture))
    bufs = WinogradBuffers.allocate(m, geom)
    rng = np.random.default_rng(0)
    bufs.load_input(m, geom, rng.standard_normal((c, h, w)).astype(np.float32))
    bufs.load_weights(m, geom, rng.standard_normal((k, c, 3, 3)).astype(np.float32))
    return m, geom, bufs


def model_counts(ph: PhaseModel) -> dict[str, int]:
    return {c.value: n for c, n in ph.instrs.items() if n}


class TestInstructionCountValidation:
    """Model instruction counts must equal traced counts exactly."""

    @pytest.mark.parametrize("vlen", [512, 1024, 2048])
    @pytest.mark.parametrize("c,k,h,w", [(5, 6, 12, 14), (16, 8, 20, 26)])
    def test_winograd_phases(self, c, k, h, w, vlen):
        phase_pairs = [
            (filter_transform, filter_transform_model, (), {}),
            (input_transform, input_transform_model, (), {}),
            (output_transform, output_transform_model,
             (filter_transform, input_transform, tuple_multiplication), {}),
        ]
        for fn, model_fn, pre, kw in phase_pairs:
            m, geom, bufs = build_winograd(c, k, h, w, vlen)
            for p in pre:
                p(m, geom, bufs)
            m.tracer.reset()
            fn(m, geom, bufs, **kw)
            assert_counts_match(
                model_counts(model_fn(geom)), m.tracer.counts(), fn.__name__
            )

    @pytest.mark.parametrize("variant", [INDEXED, SLIDEUP, SLIDEUP_LOG])
    @pytest.mark.parametrize("vlen", [512, 2048])
    def test_tuple_mult_variants(self, variant, vlen):
        m, geom, bufs = build_winograd(5, 6, 12, 14, vlen)
        filter_transform(m, geom, bufs)
        input_transform(m, geom, bufs)
        m.tracer.reset()
        tuple_multiplication(m, geom, bufs, variant=variant)
        assert_counts_match(
            model_counts(tuple_mult_model(geom, variant)),
            m.tracer.counts(),
            f"tuple_mult[{variant}]",
        )

    @pytest.mark.parametrize("ks,s,p", [(3, 1, 1), (3, 2, 1), (1, 1, 0), (5, 2, 2)])
    def test_im2col(self, ks, s, p):
        geom = Im2colGeometry(c_in=3, h=11, w=13, ksize=ks, stride=s, pad=p)
        m = RvvMachine(512, memory=Memory(1 << 24), tracer=Tracer())
        bufs = Im2colBuffers.allocate(m, geom)
        bufs.load_input(m, geom, np.zeros((3, 11, 13), np.float32))
        im2col_kernel(m, geom, bufs)
        assert_counts_match(
            model_counts(im2col_model_for(geom, 16)), m.tracer.counts(), "im2col"
        )

    @pytest.mark.parametrize("M,K,N", [(8, 16, 40), (13, 7, 33), (1, 1, 1)])
    def test_gemm(self, M, K, N):
        geom = GemmGeometry(m=M, kd=K, n=N, vlen_elems=16)
        m = RvvMachine(512, memory=Memory(1 << 24), tracer=Tracer())
        bufs = GemmBuffers.allocate(m, geom)
        bufs.load(m, geom, np.zeros((M, K), np.float32), np.zeros((K, N), np.float32))
        gemm_kernel(m, geom, bufs)
        assert_counts_match(
            model_counts(gemm_model(geom)), m.tracer.counts(), "gemm"
        )

    @pytest.mark.parametrize("vlen", [512, 2048])
    @pytest.mark.parametrize("M,K,N", [(6, 27, 64), (13, 9, 77), (8, 6, 64)])
    def test_gemm_every_schedule(self, M, K, N, vlen):
        """Instruction and element counts equal the trace for every
        schedule the tuner searches (mr, LMUL, loop order, reduction
        tile, vsetvl placement)."""
        geom = GemmGeometry(m=M, kd=K, n=N, vlen_elems=vlen // 32)
        for sched in matmul_space(M, K):
            m = RvvMachine(vlen, memory=Memory(1 << 20), tracer=Tracer())
            gemm_kernel(m, geom, GemmBuffers.allocate(m, geom), sched)
            ph = gemm_model(geom, schedule=sched)
            assert_counts_match(model_counts(ph), m.tracer.counts(),
                                f"gemm[{sched.label()}]")
            assert {c.value: e for c, e in ph.elems.items() if e} == {
                c.value: st.elems for c, st in m.tracer.by_class.items()
            }, sched.label()

    def test_flops_match_winograd_mathematics(self):
        """Tuple-mult FMA flops = 2 * 64 * (4K lanes) * TB * C per panel
        sweep — the 5.06x multiplication reduction over direct conv is
        visible in the model's flop count."""
        geom = WinogradGeometry(c_in=8, h=26, w=26, c_out=8, pad=1, vlen_elems=16)
        ph = tuple_mult_model(geom, SLIDEUP)
        # 16 quads x vl lanes x C x TB x 64 p x 2 flops, summed over panels.
        expected = 0
        for kp in range(geom.k_panels):
            vl = min(geom.vlen_elems, 4 * geom.c_out - kp * geom.vlen_elems)
            expected += 2 * 16 * vl * geom.c_in * geom.tile_blocks * 64
        assert ph.flops == expected


class TestTrafficValidation:
    """Model cache behavior must track exact simulation of the trace."""

    @pytest.mark.parametrize(
        "c,k,h,w,vlen",
        [(16, 16, 26, 26, 512), (8, 12, 20, 32, 1024), (32, 24, 30, 30, 512)],
    )
    def test_winograd_layer_accuracy(self, c, k, h, w, vlen):
        m, geom, bufs = build_winograd(c, k, h, w, vlen, capture=True)
        filter_transform(m, geom, bufs)
        input_transform(m, geom, bufs)
        tuple_multiplication(m, geom, bufs, variant=SLIDEUP)
        output_transform(m, geom, bufs)
        cfg = SystemConfig(vlen_bits=vlen, l2_mb=1, l1_kb=64)
        exact = Simulator(cfg).run_trace(m.tracer)
        model = stats_from_model(winograd_layer_model(geom, SLIDEUP), cfg)
        assert model.hierarchy.l1.accesses == pytest.approx(
            exact.hierarchy.l1.accesses, rel=0.02
        )
        # L1 misses are dominated by set-conflict effects (the X tile
        # rows cluster into a fraction of the L1's 128 sets), which a
        # stack-distance model intentionally abstracts; the paper
        # reports no L1 numbers, and the quantities it does report (L2
        # behavior, cycles) must track much tighter.
        assert model.hierarchy.l1.misses == pytest.approx(
            exact.hierarchy.l1.misses, rel=0.65
        )
        assert model.hierarchy.l2.misses == pytest.approx(
            exact.hierarchy.l2.misses, rel=0.30
        )
        assert model.cycles == pytest.approx(exact.cycles, rel=0.25)

    def test_im2col_gemm_layer_accuracy(self):
        c, k, h, w = 16, 16, 24, 24
        ig = Im2colGeometry(c_in=c, h=h, w=w, ksize=3, stride=1, pad=1)
        gg = GemmGeometry(m=k, kd=ig.rows, n=ig.cols, vlen_elems=16)
        m = RvvMachine(512, memory=Memory(1 << 26), tracer=Tracer(capture=True))
        ibufs = Im2colBuffers.allocate(m, ig)
        rng = np.random.default_rng(0)
        ibufs.load_input(m, ig, rng.standard_normal((c, h, w)).astype(np.float32))
        im2col_kernel(m, ig, ibufs)
        gbufs = GemmBuffers(
            a=m.memory.alloc_f32(gg.a_size), b=ibufs.cols,
            c=m.memory.alloc_f32(gg.c_size),
        )
        m.memory.write_f32(gbufs.a, np.zeros(gg.a_size, np.float32))
        gemm_kernel(m, gg, gbufs)
        cfg = SystemConfig(vlen_bits=512, l2_mb=1, l1_kb=64)
        exact = Simulator(cfg).run_trace(m.tracer)
        phases = [
            im2col_model_for(ig, 16),
            gemm_model(gg, cols_distance=ig.cols_size * 4.0),
        ]
        model = stats_from_model(phases, cfg)
        # Alignment-expectation line counting is within ~8% of exact.
        assert model.hierarchy.l1.accesses == pytest.approx(
            exact.hierarchy.l1.accesses, rel=0.08
        )
        assert model.hierarchy.l2.misses == pytest.approx(
            exact.hierarchy.l2.misses, rel=0.30
        )
        assert model.cycles == pytest.approx(exact.cycles, rel=0.25)


class TestEvaluateHierarchy:
    def test_cold_always_misses(self):
        ph = PhaseModel("t")
        ph.add_traffic("cold", 100, COLD)
        h = evaluate_hierarchy([ph], 64 * 1024, 1 << 20)
        assert h.l1.misses == 100 and h.l2.misses == 100

    def test_distance_thresholds(self):
        """The smooth criterion: well-separated distances behave like
        the hard threshold within a few percent."""
        ph = PhaseModel("t")
        ph.add_traffic("tiny", 1000, 512)  # << L1
        ph.add_traffic("mid", 2000, 128 * 1024)  # >> L1, << L2
        ph.add_traffic("huge", 3000, 1 << 32)  # >> L2
        h = evaluate_hierarchy([ph], 64 * 1024, 64 << 20)
        assert h.l1.misses == pytest.approx(5000, rel=0.10)
        assert h.l2.misses == pytest.approx(3000, rel=0.10)
        assert h.l2.accesses == h.l1.misses

    def test_hit_probability_is_monotone_in_capacity(self):
        ph = PhaseModel("t")
        ph.add_traffic("borderline", 10_000, 700 * 1024)
        misses = [
            evaluate_hierarchy([ph], 64 * 1024, mb << 20).l2.misses
            for mb in (1, 2, 4, 16, 64)
        ]
        assert misses == sorted(misses, reverse=True)
        assert misses[0] > misses[-1]

    def test_dilution_shrinks_effective_capacity(self):
        ph1 = PhaseModel("t")
        ph1.add_traffic("strided", 1000, 32 * 1024, dilution=8.0)
        ph2 = PhaseModel("t")
        ph2.add_traffic("unit", 1000, 32 * 1024, dilution=1.0)
        h1 = evaluate_hierarchy([ph1], 64 * 1024, 1 << 20)
        h2 = evaluate_hierarchy([ph2], 64 * 1024, 1 << 20)
        assert h1.l1.misses > h2.l1.misses

    def test_writeback_only_for_streaming_regions(self):
        ph = PhaseModel("t")
        ph.add_traffic("fits", 10, COLD, is_store=True, region=1024)
        ph.add_traffic("streams", 20, COLD, is_store=True, region=1 << 30)
        h = evaluate_hierarchy([ph], 64 * 1024, 1 << 20)
        assert h.l2.writebacks == 20
        assert h.dram_lines == 30 + 20


def _columns(ph: PhaseModel) -> list[np.ndarray]:
    t = ph.traffic
    return [t.accesses, t.distance, t.is_store, t.region, t.dilution]


def _rows_to_columns(rows: list[tuple]) -> list[np.ndarray]:
    """Reference columns from ``(accesses, distance, is_store, region,
    dilution)`` rows, with the dtypes of :class:`TrafficColumns`."""
    acc, dist, store, region, dil = zip(*rows) if rows else ((),) * 5
    return [
        np.array(acc, dtype=np.float64),
        np.array(dist, dtype=np.float64),
        np.array(store, dtype=bool),
        np.array(region, dtype=np.float64),
        np.array(dil, dtype=np.float64),
    ]


class TestTrafficColumns:
    """``add_traffic``: scalar and array appends, order and validation."""

    def test_scalar_and_array_appends_keep_order(self):
        ph = PhaseModel("t")
        ph.add_traffic("a", 3, 64.0)
        ph.add_traffic("b", np.array([1.0, 0.0, 2.5]), 128.0,
                       is_store=np.array([True, False, False]), region=4096.0)
        ph.add_traffic("c", 7.0, COLD, is_store=True, dilution=4.0)
        ph.add_traffic("d", np.array([5.0, 6.0]), np.array([1.0, 2.0]))
        expected = _rows_to_columns([
            (3.0, 64.0, False, math.inf, 1.0),
            (1.0, 128.0, True, 4096.0, 1.0),
            (2.5, 128.0, False, 4096.0, 1.0),  # the 0-access row is dropped
            (7.0, COLD, True, math.inf, 4.0),
            (5.0, 1.0, False, math.inf, 1.0),
            (6.0, 2.0, False, math.inf, 1.0),
        ])
        for got, want in zip(_columns(ph), expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable
        assert ph.total_line_accesses == 3.0 + 1.0 + 2.5 + 7.0 + 5.0 + 6.0

    def test_zero_access_classes_are_dropped(self):
        ph = PhaseModel("t")
        ph.add_traffic("none", 0, 64.0)
        ph.add_traffic("none either", np.zeros(4), 64.0)
        assert all(col.size == 0 for col in _columns(ph))
        assert ph.total_line_accesses == 0.0

    def test_empty_phase_has_empty_columns(self):
        ph = PhaseModel("t")
        assert [c.dtype for c in _columns(ph)] == [
            np.float64, np.float64, bool, np.float64, np.float64]
        h = evaluate_hierarchy([ph], 64 * 1024, 1 << 20)
        assert h.l1.accesses == h.l2.misses == 0

    @pytest.mark.parametrize("field,value", [
        ("accesses", math.nan),
        ("accesses", -1.0),
        ("accesses", math.inf),
        ("accesses", -math.inf),
        ("distance", math.nan),
        ("distance", -64.0),
        ("region", math.nan),
        ("dilution", math.nan),
        ("dilution", 0.0),
        ("dilution", -2.0),
        ("dilution", math.inf),
    ])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_invalid_values_raise_naming_the_class(self, field, value, as_array):
        fields = {"accesses": 10.0, "distance": 64.0, "region": 4096.0,
                  "dilution": 1.0}
        if as_array:
            fields = {k: np.full(3, v) for k, v in fields.items()}
            fields[field][1] = value
        else:
            fields[field] = value
        ph = PhaseModel("phase-x")
        with pytest.raises(ConfigError, match=rf"'bad class'.*'phase-x'.*{field}"):
            ph.add_traffic("bad class", **fields)
        assert all(col.size == 0 for col in _columns(ph))

    def test_non_finite_accesses_and_dilutions_name_their_field(self):
        """An infinite dilution of a zero distance would make a NaN
        effective distance, and infinite accesses an infinite count;
        both are refused at the append, in either form."""
        ph = PhaseModel("phase-x")
        with pytest.raises(ConfigError, match="dilution must be finite"):
            ph.add_traffic("x", 1.0, 0.0, dilution=math.inf)
        with pytest.raises(ConfigError, match="accesses must be finite"):
            ph.add_traffic("x", math.inf, 0.0)
        with pytest.raises(ConfigError, match="dilution must be finite"):
            ph.add_traffic("x", np.ones(2), 0.0, dilution=np.array([1.0, math.inf]))
        with pytest.raises(ConfigError, match="accesses must be finite"):
            ph.add_traffic("x", np.array([math.inf, 1.0]), 0.0, repeat=2)
        assert all(col.size == 0 for col in _columns(ph))

    def test_infinite_distance_and_region_stay_accepted(self):
        ph = PhaseModel("t")
        ph.add_traffic("cold", 2.0, COLD, is_store=True, region=math.inf)
        ph.add_traffic("cold run", np.ones(2), COLD, region=math.inf)
        assert _columns(ph)[1].tolist() == [COLD] * 3

    def test_repeat_appends_the_pattern_in_a_row(self):
        ph = PhaseModel("t")
        ph.add_traffic("a", 3, 64.0)
        ph.add_traffic("panel", np.array([1.0, 0.0, 2.5]),
                       np.array([128.0, 256.0, COLD]),
                       is_store=np.array([False, False, True]), region=4096.0,
                       repeat=3)
        ph.add_traffic("one class", 7.0, 512.0, dilution=2.0, repeat=2)
        panel = [(1.0, 128.0, False, 4096.0, 1.0),
                 (2.5, COLD, True, 4096.0, 1.0)]  # the 0-access row is dropped
        expected = _rows_to_columns(
            [(3.0, 64.0, False, math.inf, 1.0)] + panel * 3
            + [(7.0, 512.0, False, math.inf, 2.0)] * 2)
        for got, want in zip(_columns(ph), expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    @pytest.mark.parametrize("field,value", [
        ("accesses", -1.0),
        ("accesses", math.inf),
        ("distance", math.nan),
        ("region", math.nan),
        ("dilution", 0.0),
        ("dilution", math.inf),
    ])
    def test_repeat_rejects_invalid_fields_by_name(self, field, value):
        fields = {k: np.full(3, v) for k, v in (
            ("accesses", 10.0), ("distance", 64.0), ("region", 4096.0),
            ("dilution", 1.0))}
        fields[field][2] = value
        ph = PhaseModel("phase-x")
        with pytest.raises(ConfigError, match=rf"'bad run'.*'phase-x'.*{field}"):
            ph.add_traffic("bad run", **fields, repeat=4)
        assert all(col.size == 0 for col in _columns(ph))

    @pytest.mark.parametrize("repeat", [0, -1])
    def test_repeat_below_one_raises(self, repeat):
        ph = PhaseModel("t")
        with pytest.raises(ConfigError, match="repeat"):
            ph.add_traffic("r", np.ones(2), 64.0, repeat=repeat)
        with pytest.raises(ConfigError, match="repeat"):
            ph.add_traffic("r", 1.0, 64.0, repeat=repeat)
        assert all(col.size == 0 for col in _columns(ph))

    def test_rejects_multidimensional_fields(self):
        ph = PhaseModel("t")
        with pytest.raises(ConfigError, match="1-D"):
            ph.add_traffic("grid", np.ones((2, 2)), 64.0)

    @pytest.mark.parametrize("appends", ["empty", "mixed", "scalars"])
    def test_reading_the_columns_leaves_the_phase_as_it_is(self, appends):
        """Condensation sees the same runs, so the same certificate,
        whether or not ``traffic`` was read first."""
        def build() -> PhaseModel:
            ph = PhaseModel("t")
            if appends != "empty":
                ph.add_traffic("s", 2.0, 512.0)
            if appends == "mixed":
                ph.add_traffic("run", np.ones(3), np.array([64.0, 128.0, 256.0]),
                               repeat=4)
                ph.add_traffic("s2", 5.0, COLD, is_store=True)
            return ph

        untouched, read = build(), build()
        first = _columns(read)
        for got, want in zip(_columns(read), first):  # a second read
            assert got.tobytes() == want.tobytes()
        a = CondensedTraffic.from_phases([untouched])
        b = CondensedTraffic.from_phases([read])
        assert len(b.runs) == len(a.runs)
        assert b.error_factor == a.error_factor
        assert b.totals.tobytes() == a.totals.tobytes()

    def test_mixed_appends_condense_bit_identically(self):
        """The scalar reference and the condensed L1 split + smoothed L2
        agree exactly on a phase built from scalar and array appends."""
        rng = np.random.default_rng(7)
        dists = np.array([256.0, 48 * 1024.0, 700 * 1024.0, 3 << 20, COLD])
        ph = PhaseModel("mixed")
        for i in range(40):
            if i % 3:
                ph.add_traffic(f"s{i}", float(rng.uniform(0, 1e4)),
                               float(rng.choice(dists)),
                               is_store=bool(i % 2), region=float(1 << (10 + i % 20)),
                               dilution=float(rng.choice([1.0, 2.0, 8.0])))
            else:
                n = int(rng.integers(1, 50))
                ph.add_traffic(f"a{i}", rng.uniform(0, 1e4, n), rng.choice(dists, n),
                               is_store=rng.random(n) < 0.5,
                               region=rng.choice([1024.0, float(1 << 30)], n),
                               dilution=rng.choice([1.0, 4.0], n))
        other = PhaseModel("other")
        other.add_traffic("tail", rng.uniform(0, 1e3, 5), 96 * 1024.0, is_store=True)
        phases = [ph, other]
        l1 = 64 * 1024
        split = CondensedTraffic.from_phases(phases).l1_split(l1)
        assert split.traffic.n_classes == sum(p.traffic.accesses.size for p in phases)
        sizes = (1, 4, 64)
        misses, writebacks = split.column.smooth_l2([mb << 20 for mb in sizes])
        for mb, m, w in zip(sizes, misses[0].tolist(), writebacks[0].tolist()):
            h = evaluate_hierarchy(phases, l1, mb << 20)
            assert (h.l1.accesses, h.l1.misses, h.l2.accesses) == (
                split.accesses, split.misses, split.misses)
            assert (h.l2.misses, h.l2.writebacks) == (
                int(round(m)), int(round(w)))


def _gemm_oracle(geom: GemmGeometry, cols_distance: float | None):
    """The per-panel, per-block scalar loop :func:`gemm_model` replaced:
    ``(instrs, elems, traffic rows)``."""
    instrs: dict = {}
    elems: dict = {}

    def add_instr(opclass, count, elems_per):
        instrs[opclass] = instrs.get(opclass, 0) + count
        elems[opclass] = elems.get(opclass, 0) + count * elems_per

    rows_out = []
    for pn in range(geom.n_panels):
        j0 = pn * geom.vlen_elems
        vl = min(geom.vlen_elems, geom.n - j0)
        b_lines = lines_per_access(vl, 4)
        add_instr(OpClass.VSETVL, geom.m_blocks, vl)
        add_instr(OpClass.VMOVE, geom.m, vl)
        add_instr(OpClass.VLOAD_UNIT, geom.kd * geom.m_blocks, vl)
        add_instr(OpClass.SCALAR, geom.kd * geom.m, 1)
        add_instr(OpClass.VFMA, geom.kd * geom.m, vl)
        add_instr(OpClass.VSTORE_UNIT, geom.m, vl)
        for mb in range(geom.m_blocks):
            rows = min(geom.mr, geom.m - mb * geom.mr)
            d_mb = geom.kd * (vl * 4 + rows * 4.0 / 16) + rows * vl * 4
            b_acc = geom.kd * b_lines
            if mb == 0:
                dist = cols_distance if cols_distance is not None else COLD
            else:
                dist = d_mb
            rows_out.append((b_acc, dist, False, math.inf, 1.0))
            rows_out.append((rows * b_lines, COLD, True, math.inf, 1.0))
    return instrs, elems, rows_out


class TestGemmModelDifferential:
    """The vectorized GEMM model against the scalar per-panel loop."""

    @pytest.mark.parametrize("m,kd,n,vlen", [
        (20, 9, 10, 16),     # tail panel only (n < vlen)
        (20, 9, 64, 16),     # no tail panel (n % vlen == 0)
        (5, 9, 70, 16),      # m < mr: one short block
        (24, 9, 70, 16),     # m % mr == 0: full blocks only
        (13, 1, 70, 16),     # kd == 1
        (64, 27, 50176, 16),  # VGG16 conv0 at VLEN 512
        (1, 1, 1, 64),
    ])
    @pytest.mark.parametrize("cols_distance", [None, 602112.0])
    def test_matches_scalar_loop_bit_for_bit(self, m, kd, n, vlen, cols_distance):
        geom = GemmGeometry(m=m, kd=kd, n=n, vlen_elems=vlen)
        ph = gemm_model(geom, cols_distance=cols_distance)
        instrs, elems, rows = _gemm_oracle(geom, cols_distance)
        assert list(ph.instrs.items()) == list(instrs.items())
        assert list(ph.elems.items()) == list(elems.items())
        for got, want in zip(_columns(ph), _rows_to_columns(rows), strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()


def _matmul(order=("j", "i", "k"), mr=8, lmul=1, ktile=None, hoist=False):
    sched = (matmul_schedule().tile("j", VL).vectorize("j", lmul=lmul)
             .tile("i", mr).unroll("i").reorder(*order))
    if ktile is not None:
        sched = sched.tile("k", ktile).place("acc", "memory")
    return sched.hoist_setvl(hoist)


class TestGemmModelSchedules:
    """The traffic classes of non-default schedules follow their loop
    order (the counts are pinned against the trace above)."""

    GEOM = GemmGeometry(m=20, kd=9, n=40, vlen_elems=16)  # 3 M blocks, tail panel

    def test_vsetvl_placement_moves_no_traffic(self):
        plain = gemm_model(self.GEOM, 1e4, schedule=_matmul())
        hoisted = gemm_model(self.GEOM, 1e4, schedule=_matmul(hoist=True))
        for got, want in zip(_columns(hoisted), _columns(plain), strict=True):
            assert got.tobytes() == want.tobytes()
        assert hoisted.instrs[OpClass.VSETVL] == 3  # one per panel
        assert plain.instrs[OpClass.VSETVL] == 3 * 3  # one per block

    def test_rows_outermost_reuses_b_after_a_whole_row_pass(self):
        g = self.GEOM
        t = gemm_model(g, 1e4, schedule=_matmul(order=("i", "j", "k"))).traffic
        b_dist = t.distance[~t.is_store]
        # Per panel width (two full panels, then the tail), one B read
        # per M block: the first at the cross-kernel distance, then
        # after every panel of one M block.
        for rows, d in zip((8, 4), (b_dist[1], b_dist[2])):
            assert d == g.kd * (g.n * 4 + rows * 3 / 4) + rows * g.n * 4
        assert b_dist[0] == 1e4 and b_dist.tolist()[3:] == b_dist.tolist()[:3] * 2

    def test_tiled_reduction_reloads_c_rows(self):
        g = self.GEOM
        ph = gemm_model(g, 1e4, schedule=_matmul(ktile=4))  # k blocks 4, 4, 1
        t = ph.traffic
        loads, stores = t.accesses[~t.is_store], t.accesses[t.is_store]
        b_lines = lines_per_access(16, 4) * 2 + lines_per_access(8, 4)
        # B once per M block and C once per reduction block; the rows
        # of every block after the first are reloaded.
        assert math.isclose(loads.sum(), (g.kd * 3 + g.m * 2) * b_lines)
        assert math.isclose(stores.sum(), g.m * 3 * b_lines)
        assert (t.distance[t.is_store] == COLD).sum() == 3 * 3  # first k block
        assert ph.instrs[OpClass.VSTORE_UNIT] == g.m * 3 * 3


class TestLayerModel:
    def spec(self, **kw):
        base = dict(
            name="l", c_in=16, h_in=28, w_in=28, c_out=16, ksize=3,
            stride=1, pad=1,
        )
        base.update(kw)
        return ConvLayerSpec(**base)

    def test_winograd_layer_has_four_phases(self):
        from repro.model import layer_phases

        phases = layer_phases(self.spec(), SystemConfig())
        assert [p.name.split("[")[0] for p in phases] == [
            "filter_transform",
            "input_transform",
            "tuple_mult",
            "output_transform",
        ]

    def test_gemm_layer_has_two_phases(self):
        from repro.model import layer_phases

        phases = layer_phases(self.spec(ksize=1, pad=0), SystemConfig())
        assert [p.name for p in phases] == ["im2col", "gemm"]

    def test_network_totals_are_sums(self):
        specs = [self.spec(name="a"), self.spec(name="b", ksize=1, pad=0)]
        cfg = SystemConfig()
        result = simulate_inference("net", specs, cfg)
        assert len(result.per_layer) == 2
        assert result.total.flops == sum(s.flops for s in result.per_layer)
        assert result.cycles == pytest.approx(
            sum(s.cycles for s in result.per_layer)
        )

    def test_hybrid_false_forces_gemm(self):
        specs = [self.spec()]
        cfg = SystemConfig()
        hybrid = simulate_inference("h", specs, cfg, hybrid=True)
        pure = simulate_inference("p", specs, cfg, hybrid=False)
        assert "winograd" in hybrid.per_layer[0].label
        assert "im2col" in pure.per_layer[0].label

    def test_longer_vl_fewer_instructions(self):
        """8x longer vectors shrink the dynamic instruction count, but
        by ~3x rather than 8x with the slideup variant — the linear
        slide-replication chain grows with VL (the paper's Algorithm 2
        loop runs to gvl/2)."""
        spec = self.spec(c_in=64, c_out=64, h_in=40, w_in=40)
        s512 = simulate_layer(spec, SystemConfig(vlen_bits=512))
        s4096 = simulate_layer(spec, SystemConfig(vlen_bits=4096))
        assert s4096.total_instrs < s512.total_instrs / 2.5
        # The indexed variant has no replication chain: near-linear drop.
        i512 = simulate_layer(spec, SystemConfig(vlen_bits=512), variant=INDEXED)
        i4096 = simulate_layer(spec, SystemConfig(vlen_bits=4096), variant=INDEXED)
        assert i4096.total_instrs < i512.total_instrs / 6
