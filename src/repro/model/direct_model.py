"""Closed-form model of the direct 1x1 convolution kernel."""

from __future__ import annotations

from repro.isa import OpClass
from repro.kernels.common import Direct1x1Geometry
from repro.model.traffic import COLD, PhaseModel


def direct1x1_model(geom: Direct1x1Geometry) -> PhaseModel:
    """Mirrors :func:`repro.kernels.direct.direct1x1_kernel` exactly.

    That kernel is the schedule DSL's matmul lowering under
    :func:`repro.schedule.default_direct_schedule` (one statement per
    plane at stride 1, one per output row otherwise).  The pixel loop
    is outermost: per strip, one setvl, then per
    output-channel block mr accumulator inits, C loads, C*rows scalar
    weight loads + vfmaccs and mr stores.  The X strip is re-read per
    k-block at distance ~C * strip bytes (an L1 hit); X and Y otherwise
    stream cold.
    """
    ph = PhaseModel("direct1x1")
    s = geom.stride
    vlen = geom.vlen_elems

    # Strip census: the lowering's vector strips over the pixel axis.
    if s == 1:
        n = geom.h * geom.w
        full, tail = divmod(n, vlen)
        strip_widths = [(vlen, full)] + ([(tail, 1)] if tail else [])
        load_class = OpClass.VLOAD_UNIT
    else:
        full, tail = divmod(geom.w_out, vlen)
        strip_widths = [(vlen, full * geom.h_out)]
        if tail:
            strip_widths.append((tail, geom.h_out))
        strip_widths = [(w_, c_) for (w_, c_) in strip_widths if c_]
        load_class = OpClass.VLOAD_STRIDED

    rows_per_block = [
        min(geom.mr, geom.c_out - kb * geom.mr) for kb in range(geom.k_blocks)
    ]
    total_rows = sum(rows_per_block)

    for width, count in strip_widths:
        ph.add_instr(OpClass.VSETVL, count, width)
        ph.add_instr(OpClass.VMOVE, total_rows * count, width)
        ph.add_instr(load_class, geom.k_blocks * geom.c_in * count, width)
        ph.add_instr(OpClass.SCALAR, geom.c_in * total_rows * count, 1)
        ph.add_instr(OpClass.VFMA, geom.c_in * total_rows * count, width)
        ph.add_instr(OpClass.VSTORE_UNIT, total_rows * count, width)

        # Traffic per strip instance.
        if s == 1:
            x_lines = max(1.0, width * 4 / 64.0)
        else:
            x_lines = max(1.0, width * 4 * min(s, 16) / 64.0)
        y_lines = max(1.0, width * 4 / 64.0)
        d_kb = geom.c_in * (x_lines * 64.0)  # one k-block's X re-read
        ph.add_traffic("X cold", geom.c_in * x_lines * count, COLD)
        ph.add_traffic(
            "X kb reuse",
            (geom.k_blocks - 1) * geom.c_in * x_lines * count,
            d_kb,
        )
        ph.add_traffic(
            "Y cold st", total_rows * y_lines * count, COLD, is_store=True,
            region=geom.y_size * 4.0,
        )
    return ph
