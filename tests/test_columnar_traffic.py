"""Columnar phase models and merge-based condensation, against their
scalar references.

- The Winograd phase models evaluate each panel loop once per distinct
  panel width and append the per-panel traffic as a repeated run; the
  per-panel scalar loops they replaced are kept here as the oracle, and
  the two must agree bit for bit: instruction and element counts in
  value and key order, every traffic column in its bytes.
- :meth:`CondensedTraffic.from_phases` takes the distinct effective
  distances of the appends' patterns in one ``np.unique`` instead of
  sorting every class; a hypothesis campaign checks it against
  ``np.unique`` over the laid-out classes, byte for byte, and another
  checks that how a class sequence is split into appends does not
  change the condensed form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conv import ConvLayerSpec
from repro.conv.layer import ConvAlgorithm, choose_algorithm
from repro.isa import OpClass
from repro.kernels import INDEXED, SLIDEUP, SLIDEUP_LOG, GemmGeometry, WinogradGeometry
from repro.kernels.common import QUAD, TILES_PER_BLOCK, transform_op_class_counts
from repro.kernels.tuple_mult import NATIVE, VARIANTS, slide_amounts
from repro.model import (
    COLD,
    PhaseModel,
    evaluate_hierarchy,
    filter_transform_model,
    gemm_model,
    input_transform_model,
    output_transform_model,
    tuple_mult_model,
)
from repro.model.traffic import CondensedTraffic, lines_per_access
from repro.nets import vgg16_layers, yolov3_layers
from repro.winograd.cook_toom import cook_toom, f6x3_transforms


# ----------------------------------------------------------------------
# The per-panel scalar loops (oracle)
# ----------------------------------------------------------------------
class _ScalarPhase:
    """Records what a model adds, one scalar class at a time."""

    def __init__(self):
        self.instrs = {}
        self.elems = {}
        self.rows = []

    def add_instr(self, opclass, count, elems_per):
        self.instrs[opclass] = self.instrs.get(opclass, 0) + count
        self.elems[opclass] = self.elems.get(opclass, 0) + count * elems_per

    def add_traffic(self, name, accesses, distance, is_store=False,
                    region=math.inf, dilution=1.0):
        if accesses > 0.0:
            self.rows.append((float(accesses), float(distance), bool(is_store),
                              float(region), float(dilution)))


_OPCLASS_OF = {"vmove": OpClass.VMOVE, "vfarith": OpClass.VFARITH,
               "vfma": OpClass.VFMA}


def _apps(ph, mat_counts, apps, elems):
    for kind, n in mat_counts.items():
        if n:
            ph.add_instr(_OPCLASS_OF[kind], n * apps, elems)


def _totals(geom):
    return {"u": geom.u_size * 4.0, "v": geom.v_size * 4.0,
            "m": geom.m_size * 4.0, "y": geom.y_size * 4.0}


def filter_transform_loop(geom, tf):
    g_counts = transform_op_class_counts(tf.G(np.float32))
    ph = _ScalarPhase()
    nk_full = geom.k_panel_lanes // QUAD
    for kp in range(geom.k_panels):
        k0 = kp * (geom.vlen_elems // QUAD)
        nk = min(nk_full, geom.c_out - k0)
        per = geom.c_in
        ph.add_instr(OpClass.VSETVL, per, nk)
        ph.add_instr(OpClass.VLOAD_STRIDED, 9 * per, nk)
        _apps(ph, g_counts, 11 * per, nk)
        ph.add_instr(OpClass.VSTORE_UNIT, 24 * per, nk)
        ph.add_instr(OpClass.VLOAD_UNIT, 24 * per, nk)
        ph.add_instr(OpClass.VSTORE_UNIT, 64 * per, nk)
        w_lines = nk * 1.0
        scr_lines = 24 * lines_per_access(nk, 4)
        u_st_lines = 64 * lines_per_access(nk, 4)
        d_iter = (w_lines + 2 * scr_lines + u_st_lines) * 64
        ph.add_traffic("W cold", w_lines * 1.0 * per, COLD)
        ph.add_traffic("W re-touch", (9 * nk - w_lines) * per, d_iter)
        ph.add_traffic("FT scratch st", scr_lines * per, d_iter, is_store=True,
                       region=64.0 * geom.vlen_elems * 4)
        ph.add_traffic("FT scratch ld", scr_lines * per, d_iter)
        u_region = geom.u_size * 4.0
        u_cold = 64 * nk * 4.0 / 64.0
        ph.add_traffic("U cold st", u_cold * per, COLD, is_store=True,
                       region=u_region)
        ph.add_traffic("U st re-touch", max(u_st_lines - u_cold, 0.0) * per,
                       d_iter, is_store=True, region=u_region)
    return ph


def input_transform_loop(geom, tf):
    bt_counts = transform_op_class_counts(tf.BT(np.float32))
    ph = _ScalarPhase()
    t_count = geom.num_tiles
    for cb in range(geom.channel_blocks):
        c0 = cb * geom.vlen_elems
        nc = min(geom.vlen_elems, geom.c_in - c0)
        ph.add_instr(OpClass.VSETVL, t_count, nc)
        ph.add_instr(OpClass.VLOAD_STRIDED, 64 * t_count, nc)
        _apps(ph, bt_counts, 16 * t_count, nc)
        ph.add_instr(OpClass.VSTORE_UNIT, 64 * t_count, nc)
        ph.add_instr(OpClass.VLOAD_UNIT, 64 * t_count, nc)
        ph.add_instr(OpClass.VSTORE_STRIDED, 64 * t_count, nc)
        totals = _totals(geom)
        d_intra = (8 + 8) * nc * 64.0
        d_iter = (8 + 8 + 64) * nc * 64.0
        x_acc = 64.0 * nc * t_count
        x_new = 3.0 * nc * t_count
        x_horiz = 3.0 * nc * t_count
        x_vert = 2.0 * nc * t_count
        ph.add_traffic("X cold", x_new, COLD)
        ph.add_traffic("X horiz reuse", x_horiz, d_iter)
        ph.add_traffic("X vert reuse", x_vert, geom.grid.tiles_w * d_iter)
        ph.add_traffic("X intra re-touch", x_acc - x_new - x_horiz - x_vert, d_intra)
        scr = 64 * lines_per_access(nc, 4) * t_count
        scr_region = 64.0 * geom.vlen_elems * 4
        ph.add_traffic("IT scratch st", scr, d_intra, is_store=True, region=scr_region)
        ph.add_traffic("IT scratch ld", scr, d_intra)
        v_acc = 64.0 * nc * t_count
        ph.add_traffic("V cold st", v_acc / 16, COLD, is_store=True,
                       region=totals["v"])
        ph.add_traffic("V re-touch st", 15 * v_acc / 16, d_iter, is_store=True,
                       region=totals["v"])
    return ph


def tuple_mult_loop(geom, variant):
    ph = _ScalarPhase()
    totals = _totals(geom)
    tb_count = geom.tile_blocks
    c = geom.c_in
    quads = TILES_PER_BLOCK // QUAD
    for kp in range(geom.k_panels):
        vl = min(geom.vlen_elems, QUAD * geom.c_out - kp * geom.vlen_elems)
        n_pk = 1
        ph.add_instr(OpClass.VSETVL, 64 * n_pk, vl)
        ph.add_instr(OpClass.VLOAD_UNIT, 64 * n_pk, vl)
        if variant == INDEXED:
            ph.add_instr(OpClass.VLOAD_UNIT, 64 * n_pk, vl)
        n_tb = 64 * tb_count
        ph.add_instr(OpClass.VMOVE, quads * n_tb, vl)
        ph.add_instr(OpClass.VLOAD_UNIT, c * n_tb, vl)
        ph.add_instr(OpClass.VPERMUTE, c * n_tb, vl)
        n_inner = quads * c * n_tb
        if variant == INDEXED:
            ph.add_instr(OpClass.VLOAD_INDEXED, n_inner, vl)
        elif variant == NATIVE:
            ph.add_instr(OpClass.VLOAD_UNIT, n_inner, vl)
            ph.add_instr(OpClass.VPERMUTE, n_inner, vl)
        else:
            amounts = slide_amounts(vl, log2=(variant == SLIDEUP_LOG))
            ph.add_instr(OpClass.VLOAD_UNIT, n_inner, vl)
            ph.add_instr(OpClass.VMOVE, len(amounts) * n_inner, vl)
            ph.add_instr(OpClass.VSLIDE, len(amounts) * n_inner, vl)
        ph.add_instr(OpClass.VFMA, n_inner, vl)
        ph.add_instr(OpClass.VSTORE_UNIT, quads * n_tb, vl)
        b_lines = lines_per_access(vl, 4)
        b_new_lines = vl * 4 / 4.0 / 64.0
        d_c = vl * 4 / 4.0 + TILES_PER_BLOCK * 4
        d_tb = c * d_c + quads * vl * 4
        d_kp = tb_count * d_tb
        u_first = c * b_new_lines * 64.0
        ph.add_traffic("U first read", u_first, totals["u"] + totals["v"])
        ph.add_traffic("U tb reuse", (tb_count - 1) * c * b_new_lines * 64.0, d_tb)
        ph.add_traffic("U load overlap",
                       tb_count * c * max(b_lines - b_new_lines, 0.0) * 64.0,
                       d_c * 8)
        v_first_dist = totals["v"] if kp == 0 else d_kp
        v_first = 4.0 * c * n_tb
        if variant == INDEXED:
            v_acc = float(quads) * c * n_tb
        else:
            aload_lines = vl * 4 / 64.0 + 0.75 if vl >= 16 else 1.0
            v_acc = float(quads) * aload_lines * c * n_tb
        ph.add_traffic("V first read", v_first, v_first_dist)
        ph.add_traffic("V re-touch", max(v_acc - v_first, 0.0), d_c)
        ph.add_traffic("M cold st", quads * b_lines * n_tb, COLD, is_store=True,
                       region=totals["m"])
        if variant == INDEXED:
            ph.add_traffic("index vec ld", 64.0 * n_pk, d_kp)
    return ph


def output_transform_loop(geom, tf):
    at_counts = transform_op_class_counts(tf.AT(np.float32))
    ph = _ScalarPhase()
    totals = _totals(geom)
    t_count = geom.num_tiles
    nk_full = geom.k_panel_lanes // QUAD
    for kp in range(geom.k_panels):
        k0 = kp * (geom.vlen_elems // QUAD)
        nk = min(nk_full, geom.c_out - k0)
        ph.add_instr(OpClass.VSETVL, t_count, nk)
        ph.add_instr(OpClass.VLOAD_STRIDED, 64 * t_count, nk)
        _apps(ph, at_counts, 14 * t_count, nk)
        ph.add_instr(OpClass.VSTORE_UNIT, 48 * t_count, nk)
        ph.add_instr(OpClass.VLOAD_UNIT, 48 * t_count, nk)
        ph.add_instr(OpClass.VSTORE_STRIDED, 36 * t_count, nk)
        d_ot = (16 * nk + 48 + 6 * nk) * 64.0
        m_acc = 64 * lines_per_access(nk, 16) * t_count
        m_first = 4.0 * nk * t_count
        ph.add_traffic("M first read", m_first, totals["m"])
        ph.add_traffic("M re-touch", max(m_acc - m_first, 0.0), 4 * d_ot)
        scr = 48 * lines_per_access(nk, 4) * t_count
        scr_region = 64.0 * geom.vlen_elems * 4
        ph.add_traffic("OT scratch st", scr, d_ot, is_store=True,
                       region=scr_region)
        ph.add_traffic("OT scratch ld", scr, d_ot)
        y_acc = 36.0 * nk * t_count
        y_new = 2.25 * nk * t_count
        ph.add_traffic("Y cold st", y_new, COLD, is_store=True,
                       region=totals["y"])
        ph.add_traffic("Y re-touch st", y_acc - y_new, d_ot, is_store=True,
                       region=totals["y"])
    return ph


def _columns(ph):
    t = ph.traffic
    return [t.accesses, t.distance, t.is_store, t.region, t.dilution]


def _rows_to_columns(rows):
    acc, dist, store, region, dil = zip(*rows) if rows else ((),) * 5
    return [np.array(acc, dtype=np.float64), np.array(dist, dtype=np.float64),
            np.array(store, dtype=bool), np.array(region, dtype=np.float64),
            np.array(dil, dtype=np.float64)]


def assert_same_model(ph, oracle):
    assert list(ph.instrs.items()) == list(oracle.instrs.items())
    assert list(ph.elems.items()) == list(oracle.elems.items())
    for got, want in zip(_columns(ph), _rows_to_columns(oracle.rows), strict=True):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _winograd_phases(geom, variant, tf):
    """(model, oracle) pairs of the four phases."""
    return [
        (filter_transform_model(geom, tf), filter_transform_loop(geom, tf)),
        (input_transform_model(geom, tf), input_transform_loop(geom, tf)),
        (tuple_mult_model(geom, variant), tuple_mult_loop(geom, variant)),
        (output_transform_model(geom, tf), output_transform_loop(geom, tf)),
    ]


class TestWinogradModelsDifferential:
    """The run-batched Winograd models against the per-panel loops."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("c,h,w,k,vlen", [
        (5, 12, 14, 6, 16),       # k-panel and channel-block tails
        (16, 20, 26, 8, 16),      # no tails
        (40, 9, 9, 3, 16),        # channel-block tail; one short k-panel
        (3, 8, 8, 3, 64),         # 4K < vlen: a single tail panel
        (7, 30, 10, 33, 32),      # one tail filter panel of one channel
        (64, 36, 48, 128, 512),   # VLEN 16384
        (256, 72, 96, 256, 16),   # a VGG16 layer at VLEN 512
    ])
    def test_matches_per_panel_loops(self, c, h, w, k, vlen, variant):
        geom = WinogradGeometry(c_in=c, h=h, w=w, c_out=k, pad=1,
                                vlen_elems=vlen)
        for ph, oracle in _winograd_phases(geom, variant, f6x3_transforms()):
            assert_same_model(ph, oracle)

    def test_transform_counts_follow_the_transforms_object(self):
        """Counts are computed once per transforms object, never shared
        between different transforms."""
        geom = WinogradGeometry(c_in=5, h=12, w=14, c_out=6, pad=1,
                                vlen_elems=16)
        for tf in (cook_toom(4, 3), f6x3_transforms(), cook_toom(2, 3)):
            for ph, oracle in _winograd_phases(geom, SLIDEUP, tf):
                assert_same_model(ph, oracle)

    @pytest.mark.parametrize("net", ["vgg16", "yolov3"])
    @pytest.mark.parametrize("vlen_bits", [512, 2048, 16384])
    def test_network_layers(self, net, vlen_bits):
        build = vgg16_layers if net == "vgg16" else yolov3_layers
        layers = [l for l in build(height=288, width=384)
                  if isinstance(l, ConvLayerSpec)
                  and choose_algorithm(l) is ConvAlgorithm.WINOGRAD]
        assert layers
        for layer in layers:
            geom = WinogradGeometry(
                c_in=layer.c_in, h=layer.h_in, w=layer.w_in,
                c_out=layer.c_out, pad=layer.pad, vlen_elems=vlen_bits // 32)
            for variant in (SLIDEUP, INDEXED):
                for ph, oracle in _winograd_phases(
                        geom, variant, f6x3_transforms()):
                    assert_same_model(ph, oracle)


# ----------------------------------------------------------------------
# Condensation by merging distinct distances
# ----------------------------------------------------------------------
def _condensed_reference(rows):
    """``from_phases`` as the full sort over laid-out ``rows``."""
    acc, dist, store, region, dil = _rows_to_columns(rows)
    eff_unique, eff_index = np.unique(dist * dil, return_inverse=True)
    return {"accesses": acc, "eff_unique": eff_unique, "eff_index": eff_index,
            "store_mask": store, "region": region}


def _assert_condensed_equal(ct, ref):
    for name, want in ref.items():
        got = getattr(ct, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name


def _replay_matches_reference(phases, l1=64 * 1024, l2_mbs=(1, 4, 64)):
    split = CondensedTraffic.from_phases(phases).l1_split(l1)
    misses, writebacks = split.column.smooth_l2([mb << 20 for mb in l2_mbs])
    for mb, m, w in zip(l2_mbs, misses[0].tolist(), writebacks[0].tolist()):
        h = evaluate_hierarchy(phases, l1, mb << 20)
        assert (h.l1.accesses, h.l1.misses, h.l2.accesses) == (
            split.accesses, split.misses, split.misses)
        assert (h.l2.misses, h.l2.writebacks) == (int(round(m)), int(round(w)))


_ACCESSES = st.sampled_from([0.0, 1.0, 2.5, 16.0, 1e3, 123456.75])
_DISTANCES = st.sampled_from(
    [0.0, -0.0, 64.0, 4096.0, 48 * 1024.0, 700 * 1024.0, float(3 << 20),
     COLD]) | st.floats(min_value=0.0, max_value=1e9)
_REGIONS = st.sampled_from([math.inf, 1024.0, float(1 << 30)])
_DILUTIONS = st.sampled_from([1.0, 2.0, 4.0, 0.5, 3.0])
_ROW = st.tuples(_ACCESSES, _DISTANCES, st.booleans(), _REGIONS, _DILUTIONS)

#: One append: scalar fields (one class) or a list of classes, each
#: with a repeat count.
_APPEND = st.tuples(
    st.booleans(),
    st.lists(_ROW, min_size=1, max_size=6),
    st.integers(min_value=1, max_value=4),
)
_PHASES = st.lists(st.lists(_APPEND, max_size=5), min_size=1, max_size=4)


def _build(spec):
    """Phases from drawn appends, and the rows they lay out."""
    phases, rows = [], []
    for p, appends in enumerate(spec):
        ph = PhaseModel(f"p{p}")
        for i, (scalar, classes, repeat) in enumerate(appends):
            if scalar:
                acc, dist, store, region, dil = classes[0]
                ph.add_traffic(f"s{i}", acc, dist, is_store=store, region=region,
                               dilution=dil, repeat=repeat)
                classes = classes[:1]
            else:
                acc, dist, store, region, dil = (np.array(c) for c in zip(*classes))
                ph.add_traffic(f"a{i}", acc, dist, is_store=store, region=region,
                               dilution=dil, repeat=repeat)
            kept = [(a, d + 0.0, s, r, dl) for a, d, s, r, dl in classes if a > 0.0]
            rows.extend(kept * repeat)
        phases.append(ph)
    return phases, rows


class TestCondensationDifferential:
    """``from_phases`` against ``np.unique`` over the laid-out classes."""

    @settings(max_examples=200, deadline=None)
    @given(_PHASES)
    def test_matches_sorting_reference(self, spec):
        phases, rows = _build(spec)
        _assert_condensed_equal(CondensedTraffic.from_phases(phases),
                                _condensed_reference(rows))

    @settings(max_examples=50, deadline=None)
    @given(_PHASES)
    def test_read_columns_then_condense(self, spec):
        """Reading ``traffic`` first (which lays the runs out) changes
        nothing about the condensed form."""
        phases, rows = _build(spec)
        for ph in phases:
            ph.traffic
        _assert_condensed_equal(CondensedTraffic.from_phases(phases),
                                _condensed_reference(rows))

    def test_empty_and_single_class_phases(self):
        empty = PhaseModel("empty")
        one = PhaseModel("one")
        one.add_traffic("c", 3.0, 64.0, dilution=2.0)
        for phases, rows in (
            ([], []),
            ([empty], []),
            ([empty, one, PhaseModel("also empty")],
             [(3.0, 64.0, False, math.inf, 2.0)]),
        ):
            _assert_condensed_equal(CondensedTraffic.from_phases(phases),
                                    _condensed_reference(rows))

    def test_sorts_no_per_class_array(self, monkeypatch):
        """Building and condensing a 442k-class GEMM phase (VGG16 conv0 at
        VLEN 512) sorts only patterns and distinct-distance sets."""
        sizes = []

        def spy(fn):
            def wrapped(a, *args, **kwargs):
                sizes.append(np.asarray(a).size)
                return fn(a, *args, **kwargs)
            return wrapped

        for name in ("unique", "argsort", "sort"):
            monkeypatch.setattr(np, name, spy(getattr(np, name)))
        geom = GemmGeometry(m=64, kd=27, n=50176, vlen_elems=16)
        ct = CondensedTraffic.from_phases([gemm_model(geom, 602112.0)])
        assert ct.n_classes == 2 * geom.m_blocks * geom.n_panels
        ct.totals  # the one-layer column pass runs on first read
        assert sizes and max(sizes) <= 2 * geom.m_blocks


class TestSignedZeroDistance:
    """``-0.0`` is stored as ``+0.0``, so the distinct distances do not
    depend on which zero comes first."""

    @pytest.mark.parametrize("first", [0.0, -0.0])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_either_order_gives_one_positive_zero(self, first, as_array):
        ph = PhaseModel("zeros")
        for i, zero in enumerate((first, -first)):
            if as_array:
                ph.add_traffic(f"z{i}", np.array([1.0 + i]), np.array([zero]),
                               is_store=True, region=1024.0)
            else:
                ph.add_traffic(f"z{i}", 1.0 + i, zero, is_store=True,
                               region=1024.0)
        ph.add_traffic("far", 5.0, COLD)
        ct = CondensedTraffic.from_phases([ph])
        assert ct.eff_unique.tobytes() == np.array([0.0, COLD]).tobytes()
        assert not np.signbit(ph.traffic.distance).any()
        _replay_matches_reference([ph])


#: Line counts in quarters below 2**10: every sum of a few dozen of them
#: is exact, so condensed totals compare byte for byte in any order.
_EXACT_ACCESSES = st.integers(min_value=0, max_value=4096).map(lambda q: q / 4)
_PATTERN = st.lists(
    st.tuples(_EXACT_ACCESSES, _DISTANCES, st.booleans(), _REGIONS, _DILUTIONS),
    min_size=1, max_size=8)
_MODES = ("scalar", "array", "shared fields")


def _append(ph, classes, mode, repeat):
    """Append ``classes`` ``repeat`` times in a row: as one scalar append
    per class, as one array append, or as an array append whose fields
    that all classes share are passed as one value."""
    if mode == "scalar":
        alone = len(classes) == 1
        for _ in range(1 if alone else repeat):
            for acc, dist, store, region, dil in classes:
                ph.add_traffic("s", acc, dist, is_store=store, region=region,
                               dilution=dil, repeat=repeat if alone else 1)
        return
    fields = [np.array(c) for c in zip(*classes)]
    if mode == "shared fields":
        # Accesses stay an array, so this is a run, never a scalar row.
        fields[1:] = [f[0].item() if (f == f[0]).all() else f
                      for f in fields[1:]]
    acc, dist, store, region, dil = fields
    ph.add_traffic("a", acc, dist, is_store=store, region=region,
                   dilution=dil, repeat=repeat)


class TestAppendSplitInvariance:
    """The same class sequence condenses to the same arrays however it
    was split into scalar and array appends, with or without
    ``repeat``."""

    @settings(max_examples=150, deadline=None)
    @given(pattern=_PATTERN, outer=st.integers(min_value=1, max_value=3),
           inner=st.integers(min_value=1, max_value=4), data=st.data())
    def test_any_split_condenses_like_one_append(
            self, pattern, outer, inner, data):
        one = PhaseModel("one")
        _append(one, pattern, "array", outer * inner)
        cuts = sorted(data.draw(st.sets(
            st.integers(min_value=1, max_value=len(pattern) - 1)))
            if len(pattern) > 1 else ())
        chunks = [pattern[a:b]
                  for a, b in zip([0, *cuts], [*cuts, len(pattern)])]
        modes = data.draw(st.lists(st.sampled_from(_MODES),
                                   min_size=len(chunks), max_size=len(chunks)))
        # Split over two phases at a drawn outer iteration.
        phases = [PhaseModel("first"), PhaseModel("second")]
        move = data.draw(st.integers(min_value=0, max_value=outer))
        for i in range(outer):
            ph = phases[i >= move]
            if len(chunks) == 1:
                _append(ph, chunks[0], modes[0], inner)
                continue
            for _ in range(inner):
                for chunk, mode in zip(chunks, modes):
                    _append(ph, chunk, mode, 1)
        want = CondensedTraffic.from_phases([one])
        got = CondensedTraffic.from_phases(phases)
        assert got.n_classes == want.n_classes
        for name in ("eff_unique", "region_unique", "totals", "accesses",
                     "eff_index", "store_mask", "region"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
