"""Closed-form instruction/traffic model of the Winograd pipeline.

Each function mirrors the loop structure of the corresponding kernel in
:mod:`repro.kernels` *exactly* for instruction accounting (the test
suite diffs these counts against functional traces), and derives cache
traffic classes from the kernel's loop volumes as described in
:mod:`repro.model.traffic`.  A panel loop's iterations differ only in
their lane count (full panels, then a tail), so each model evaluates
the loop body once per distinct lane count: one batch of instruction
counts for all its iterations, and one iteration's traffic classes
appended once per iteration (``add_traffic(..., repeat=n)``), in the
loop's order.

Reuse-distance derivations (per phase) are documented inline; the key
volumes:

- ``D_it``   — working set of one input-transform tile iteration;
- ``D_c``    — tuple-mult per-channel inner volume;
- ``D_tb``   — tuple-mult per-tile-block volume (filter-panel reuse);
- ``D_kp``   — tuple-mult per-k-panel volume (V-plane reuse: this is
  the distance whose capture by a multi-MB L2 produces the paper's
  Figure 3/4 cache scaling);
- ``D_ot``   — output-transform tile working set.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.isa import OpClass
from repro.kernels.common import (
    QUAD,
    TILES_PER_BLOCK,
    WinogradGeometry,
    transform_op_class_counts,
)
from repro.kernels.tuple_mult import (
    INDEXED,
    NATIVE,
    SLIDEUP,
    SLIDEUP_LOG,
    slide_amounts,
)
from repro.model.traffic import COLD, PhaseModel, lines_per_access
from repro.winograd.cook_toom import WinogradTransforms, f6x3_transforms

_OPCLASS_OF = {
    "vmove": OpClass.VMOVE,
    "vfarith": OpClass.VFARITH,
    "vfma": OpClass.VFMA,
}


class _TransformCounts(NamedTuple):
    """Op-class counts of one application of each transform matrix."""

    g: dict[str, int]
    bt: dict[str, int]
    at: dict[str, int]


#: The transforms object whose counts were computed last, with the
#: counts.  Every layer's models use the one cached F(6x6, 3x3) object,
#: so its counts are computed once per process; a cache keyed by value
#: would hash the exact ``Fraction`` matrices on every lookup.
_last_counts: tuple[WinogradTransforms, _TransformCounts] | None = None


def _transform_counts(tf: WinogradTransforms) -> _TransformCounts:
    global _last_counts
    if _last_counts is None or _last_counts[0] is not tf:
        _last_counts = (tf, _TransformCounts(
            g=transform_op_class_counts(tf.G(np.float32)),
            bt=transform_op_class_counts(tf.BT(np.float32)),
            at=transform_op_class_counts(tf.AT(np.float32)),
        ))
    return _last_counts[1]


def _add_transform_apps(
    ph: PhaseModel, mat_counts: dict[str, int], apps: int, elems: int
) -> None:
    """Account ``apps`` applications of a 1D transform at ``elems`` lanes."""
    for kind, n in mat_counts.items():
        if n:
            ph.add_instr(_OPCLASS_OF[kind], n * apps, elems)


def _runs(total: int, step: int) -> list[tuple[int, int]]:
    """The distinct lane counts of a loop over ``total`` lanes in steps
    of ``step``, in loop order, each with its iteration count: the full
    iterations, then the tail."""
    full, tail = divmod(total, step)
    return [(lanes, n) for lanes, n in ((step, full), (tail, 1)) if lanes and n]


#: One traffic class of a loop iteration: ``(name, accesses, distance,
#: is_store, region)``.
_Class = tuple[str, float, float, bool, float]


def _add_iterations(ph: PhaseModel, classes: list[_Class], count: int) -> None:
    """Append the traffic of ``count`` consecutive iterations of a
    panel loop whose iterations all touch ``classes``."""
    names, acc, dist, store, region = zip(*classes)
    ph.add_traffic(" / ".join(names), np.array(acc, dtype=np.float64),
                   np.array(dist, dtype=np.float64),
                   is_store=np.array(store, dtype=bool),
                   region=np.array(region, dtype=np.float64), repeat=count)


def _totals(geom: WinogradGeometry) -> dict[str, float]:
    """Whole-tensor byte sizes (reuse distances of cross-phase touches)."""
    return {
        "x": geom.x_size * 4.0,
        "v": geom.v_size * 4.0,
        "u": geom.u_size * 4.0,
        "m": geom.m_size * 4.0,
        "y": geom.y_size * 4.0,
    }


# ----------------------------------------------------------------------
# Phase 1: filter transform
# ----------------------------------------------------------------------
def filter_transform_model(
    geom: WinogradGeometry, tf: WinogradTransforms | None = None
) -> PhaseModel:
    tf = tf if tf is not None else f6x3_transforms()
    g_counts = _transform_counts(tf).g
    ph = PhaseModel("filter_transform")
    per = geom.c_in  # iterations of the c loop
    u_region = geom.u_size * 4.0
    # The k-panel loop, once per distinct panel width (nk output
    # channels): instruction counts for all its panels, then the traffic
    # of one panel, repeated.
    for nk, panels in _runs(geom.c_out, geom.vlen_elems // QUAD):
        n = per * panels
        ph.add_instr(OpClass.VSETVL, n, nk)
        ph.add_instr(OpClass.VLOAD_STRIDED, 9 * n, nk)
        _add_transform_apps(ph, g_counts, 11 * n, nk)  # 3 col + 8 row
        ph.add_instr(OpClass.VSTORE_UNIT, 24 * n, nk)  # col-pass scratch
        ph.add_instr(OpClass.VLOAD_UNIT, 24 * n, nk)  # row-pass scratch
        ph.add_instr(OpClass.VSTORE_UNIT, 64 * n, nk)  # compact U stores

        # Traffic.  One (kp, c) iteration touches: 9 strided weight loads
        # (36 B per output channel -> ~1 line per channel, re-touched 9x),
        # a 24-vector scratch, and 64 unit stores into the compact U.
        w_lines = nk * 1.0
        scr_lines = 24 * lines_per_access(nk, 4)
        u_st_lines = 64 * lines_per_access(nk, 4)
        d_iter = (w_lines + 2 * scr_lines + u_st_lines) * 64
        # Each store writes nk*4 bytes; stores of neighbouring tuple
        # positions share lines, so the distinct (cold) portion is the
        # payload volume and the rest re-touches within the iteration.
        u_cold = 64 * nk * 4.0 / 64.0
        _add_iterations(ph, [
            ("W cold", w_lines * 1.0 * per, COLD, False, math.inf),
            ("W re-touch", (9 * nk - w_lines) * per, d_iter, False, math.inf),
            ("FT scratch st", scr_lines * per, d_iter, True,
             64.0 * geom.vlen_elems * 4),
            ("FT scratch ld", scr_lines * per, d_iter, False, math.inf),
            ("U cold st", u_cold * per, COLD, True, u_region),
            ("U st re-touch", max(u_st_lines - u_cold, 0.0) * per, d_iter,
             True, u_region),
        ], panels)
    return ph


# ----------------------------------------------------------------------
# Phase 2: input transform
# ----------------------------------------------------------------------
def input_transform_model(
    geom: WinogradGeometry, tf: WinogradTransforms | None = None
) -> PhaseModel:
    tf = tf if tf is not None else f6x3_transforms()
    bt_counts = _transform_counts(tf).bt
    ph = PhaseModel("input_transform")
    t_count = geom.num_tiles
    totals = _totals(geom)
    # The channel-block loop, once per distinct block width (nc input
    # channels).
    for nc, blocks in _runs(geom.c_in, geom.vlen_elems):
        n = t_count * blocks
        ph.add_instr(OpClass.VSETVL, n, nc)
        ph.add_instr(OpClass.VLOAD_STRIDED, 64 * n, nc)  # X loads
        _add_transform_apps(ph, bt_counts, 16 * n, nc)  # 8 col + 8 row
        ph.add_instr(OpClass.VSTORE_UNIT, 64 * n, nc)  # scratch
        ph.add_instr(OpClass.VLOAD_UNIT, 64 * n, nc)  # scratch
        ph.add_instr(OpClass.VSTORE_STRIDED, 64 * n, nc)  # V stores

        # Traffic.  Per (tile, channel): 8 rows x 32 B ~= 8 line-touches
        # of distinct X lines (the 64 strided loads re-touch each ~8x
        # within the tile burst); the 6-element horizontal tile advance
        # makes ~3 lines/channel new, ~3 shared with the previous tile
        # and ~2 rows shared with the previous tile row.  The dominant
        # per-iteration working set is the V store side: the 64 p-plane
        # stores touch 64*nc distinct lines per tile (each line is
        # finished over 16 consecutive tiles), so one tile iteration
        # touches ~(8 + 8 + 64)*nc lines — which overflows a 64 kB L1
        # once nc grows past ~13 channels: the long-VL L1 thrashing the
        # co-design study observes.
        d_intra = (8 + 8) * nc * 64.0  # X burst + scratch
        d_iter = (8 + 8 + 64) * nc * 64.0  # one full tile iteration
        x_acc = 64.0 * nc * t_count
        x_new = 3.0 * nc * t_count
        x_horiz = 3.0 * nc * t_count
        x_vert = 2.0 * nc * t_count
        scr = 64 * lines_per_access(nc, 4) * t_count  # = 4 nc per tile
        # V: 64 strided stores x nc lines; each 64-B line holds 16
        # consecutive tile slots -> 1/16 of touches open a new line,
        # the rest re-touch at the full iteration distance.
        v_acc = 64.0 * nc * t_count
        _add_iterations(ph, [
            ("X cold", x_new, COLD, False, math.inf),
            ("X horiz reuse", x_horiz, d_iter, False, math.inf),
            ("X vert reuse", x_vert, geom.grid.tiles_w * d_iter, False,
             math.inf),
            ("X intra re-touch", x_acc - x_new - x_horiz - x_vert, d_intra,
             False, math.inf),
            ("IT scratch st", scr, d_intra, True, 64.0 * geom.vlen_elems * 4),
            ("IT scratch ld", scr, d_intra, False, math.inf),
            ("V cold st", v_acc / 16, COLD, True, totals["v"]),
            ("V re-touch st", 15 * v_acc / 16, d_iter, True, totals["v"]),
        ], blocks)
    return ph


# ----------------------------------------------------------------------
# Phase 3: tuple multiplication
# ----------------------------------------------------------------------
def tuple_mult_model(
    geom: WinogradGeometry, variant: str = SLIDEUP
) -> PhaseModel:
    ph = PhaseModel(f"tuple_mult[{variant}]")
    totals = _totals(geom)
    tb_count = geom.tile_blocks
    c = geom.c_in
    quads = TILES_PER_BLOCK // QUAD  # 16
    n_pk = 1  # per (p, kp); 64 p values
    n_tb = 64 * tb_count  # (p, kp, tb) triples per k-panel
    n_inner = quads * c * n_tb

    # Loop order (p, kp, tb, c): filter-stationary — see the kernel's
    # docstring.  Key reuse distances:
    #   D_c  — one channel iteration (compact B panel + V block);
    #   D_tb — one tile-block iteration (the filter slab's reuse);
    #   D_kp — one k-panel pass = TB * D_tb: the V plane of tuple
    #          position p is re-read at this distance on every k-panel
    #          after the first — the multi-MB working set an L2 in the
    #          paper's 16-256 MB sweep range captures.
    # The k-panel loop runs once per distinct panel width (vl lanes).
    for run, (vl, panels) in enumerate(
            _runs(QUAD * geom.c_out, geom.vlen_elems)):
        ph.add_instr(OpClass.VSETVL, 64 * n_pk * panels, vl)
        ph.add_instr(OpClass.VLOAD_UNIT, 64 * n_pk * panels, vl)  # expansion index
        if variant == INDEXED:
            ph.add_instr(OpClass.VLOAD_UNIT, 64 * n_pk * panels, vl)  # quad index
        ph.add_instr(OpClass.VMOVE, quads * n_tb * panels, vl)  # accumulator init
        ph.add_instr(OpClass.VLOAD_UNIT, c * n_tb * panels, vl)  # B panel loads
        ph.add_instr(OpClass.VPERMUTE, c * n_tb * panels, vl)  # vrgather expansion
        inner = n_inner * panels
        if variant == INDEXED:
            ph.add_instr(OpClass.VLOAD_INDEXED, inner, vl)
        elif variant == NATIVE:
            ph.add_instr(OpClass.VLOAD_UNIT, inner, vl)
            ph.add_instr(OpClass.VPERMUTE, inner, vl)  # vrep4
        else:
            amounts = slide_amounts(vl, log2=(variant == SLIDEUP_LOG))
            ph.add_instr(OpClass.VLOAD_UNIT, inner, vl)
            ph.add_instr(OpClass.VMOVE, len(amounts) * inner, vl)
            ph.add_instr(OpClass.VSLIDE, len(amounts) * inner, vl)
        ph.add_instr(OpClass.VFMA, inner, vl)
        ph.add_instr(OpClass.VSTORE_UNIT, quads * n_tb * panels, vl)  # M stores

        # Traffic volumes (bytes).
        b_lines = lines_per_access(vl, 4)  # panel-load line touches
        b_new_lines = vl * 4 / 4.0 / 64.0  # fresh compact values per load
        d_c = vl * 4 / 4.0 + TILES_PER_BLOCK * 4  # compact B + V block
        d_tb = c * d_c + quads * vl * 4  # one tile block (+ M stores)
        d_kp = tb_count * d_tb  # one k-panel pass (V-plane reuse)

        # V reads: 4 distinct lines per (tb, p, c) block; first touched
        # at k-panel 0 (distance ~ the whole V tensor since the input
        # transform wrote it), re-read on every later k-panel at D_kp.
        v_first = 4.0 * c * n_tb
        if variant == INDEXED:
            # Each gather touches the one line holding its 16-B quad.
            v_acc = float(quads) * c * n_tb
        else:
            # Each slideup-variant load reads a full vl-lane vector from
            # the quad's (16q mod 64)-aligned offset: vl*4/64 lines plus
            # an extra line for the three in four unaligned offsets.
            aload_lines = (
                vl * 4 / 64.0 + 0.75 if vl >= 16 else 1.0
            )
            v_acc = float(quads) * aload_lines * c * n_tb

        def k_panel(v_first_dist: float) -> list[_Class]:
            # U (B panel) reads: cold on the first tile block of its
            # (p, kp) — the filter transform wrote it an input-transform
            # ago — then re-read every tile block at the small distance
            # D_tb (the filter-stationary payoff: these hit).  Each load
            # touches vl lanes but only vl/4 fresh values; the overlap
            # re-touches the following channels' rows at a tiny
            # distance.  M stores: streaming, cold.
            classes: list[_Class] = [
                ("U first read", c * b_new_lines * 64.0,
                 totals["u"] + totals["v"], False, math.inf),
                ("U tb reuse", (tb_count - 1) * c * b_new_lines * 64.0, d_tb,
                 False, math.inf),
                ("U load overlap",
                 tb_count * c * max(b_lines - b_new_lines, 0.0) * 64.0,
                 d_c * 8, False, math.inf),
                ("V first read", v_first, v_first_dist, False, math.inf),
                ("V re-touch", max(v_acc - v_first, 0.0), d_c, False,
                 math.inf),
                ("M cold st", quads * b_lines * n_tb, COLD, True, totals["m"]),
            ]
            if variant == INDEXED:
                classes.append(("index vec ld", 64.0 * n_pk, d_kp, False,
                                math.inf))
            return classes

        if run == 0:
            _add_iterations(ph, k_panel(totals["v"]), 1)
            panels -= 1
        if panels:
            _add_iterations(ph, k_panel(d_kp), panels)
    return ph


# ----------------------------------------------------------------------
# Phase 4: output transform
# ----------------------------------------------------------------------
def output_transform_model(
    geom: WinogradGeometry, tf: WinogradTransforms | None = None
) -> PhaseModel:
    tf = tf if tf is not None else f6x3_transforms()
    at_counts = _transform_counts(tf).at
    ph = PhaseModel("output_transform")
    totals = _totals(geom)
    t_count = geom.num_tiles
    # The k-panel loop, once per distinct panel width (nk channels).
    for nk, panels in _runs(geom.c_out, geom.vlen_elems // QUAD):
        n = t_count * panels
        ph.add_instr(OpClass.VSETVL, n, nk)
        ph.add_instr(OpClass.VLOAD_STRIDED, 64 * n, nk)  # M loads
        _add_transform_apps(ph, at_counts, 14 * n, nk)  # 8 col + 6 row
        ph.add_instr(OpClass.VSTORE_UNIT, 48 * n, nk)  # scratch
        ph.add_instr(OpClass.VLOAD_UNIT, 48 * n, nk)  # scratch
        ph.add_instr(OpClass.VSTORE_STRIDED, 36 * n, nk)  # Y stores

        # Traffic.  M loads: stride-16 over nk lanes -> nk/4 lines per
        # load; four consecutive tiles share one quad's M lines.
        d_ot = (16 * nk + 48 + 6 * nk) * 64.0  # M + scratch + Y lines
        m_acc = 64 * lines_per_access(nk, 16) * t_count
        m_first = 4.0 * nk * t_count
        scr = 48 * lines_per_access(nk, 4) * t_count
        # Y: 36 strided stores x nk lines; a 6x6 fp32 tile is 144 new
        # bytes (2.25 lines) per output channel, the rest shared with
        # the horizontally previous tile or re-touches.
        y_acc = 36.0 * nk * t_count
        y_new = 2.25 * nk * t_count
        _add_iterations(ph, [
            ("M first read", m_first, totals["m"], False, math.inf),
            ("M re-touch", max(m_acc - m_first, 0.0), 4 * d_ot, False,
             math.inf),
            ("OT scratch st", scr, d_ot, True, 64.0 * geom.vlen_elems * 4),
            ("OT scratch ld", scr, d_ot, False, math.inf),
            ("Y cold st", y_new, COLD, True, totals["y"]),
            ("Y re-touch st", y_acc - y_new, d_ot, True, totals["y"]),
        ], panels)
    return ph


# ----------------------------------------------------------------------
def winograd_layer_model(
    geom: WinogradGeometry,
    variant: str = SLIDEUP,
    tf: WinogradTransforms | None = None,
) -> list[PhaseModel]:
    """The full four-phase Winograd pipeline model for one layer."""
    return [
        filter_transform_model(geom, tf),
        input_transform_model(geom, tf),
        tuple_mult_model(geom, variant),
        output_transform_model(geom, tf),
    ]
