"""Paper-style reporting: the reproduced tables/figures next to the
paper's published values.

Every benchmark harness prints through these helpers so that
EXPERIMENTS.md, the bench output and the examples all show the same
"paper vs measured" layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.codesign.sweep import SweepResult
from repro.errors import ConfigError

#: Published values (paper Tables 1 and 2): L2 miss rate (%) at 1 MB.
PAPER_TABLE1_YOLO = {512: 39.0, 1024: 47.0, 2048: 50.0, 4096: 52.0}
PAPER_TABLE2_VGG = {512: 80.0, 1024: 84.0, 2048: 85.0, 4096: 82.0}

#: Published headline factors (Sections 1/5 and the conclusion).
PAPER_HEADLINES = {
    "yolo_vl_speedup_512_to_4096": 1.76,
    "yolo_l2_speedup_1_to_256mb": 1.6,  # at 4096-bit (1.5-1.6 by VLEN)
    "vgg_vl_speedup_512_to_2048": 1.4,
    "vgg_l2_speedup_1_to_64mb": 1.3,
    "yolo_hybrid_vs_gemm": 1.08,
    "vgg_winograd_vs_gemm": 1.2,
    "tuple_mult_slideup_vs_indexed": 2.3,
}


@dataclass(frozen=True)
class Comparison:
    """One paper-vs-measured quantity."""

    label: str
    paper: float
    measured: float

    @property
    def ratio(self) -> float:
        """measured / paper; NaN when the paper value is 0 (a ratio
        against a zero baseline is undefined, and the old ``inf``
        rendered as a confident-looking ``infx`` in tables)."""
        return self.measured / self.paper if self.paper else float("nan")

    def row(self) -> str:
        ratio = self.ratio
        cell = f"{ratio:>9.2f}x" if math.isfinite(ratio) else f"{'—':>10}"
        return (
            f"{self.label:<44}{self.paper:>9.2f}{self.measured:>10.2f}"
            f"{cell}"
        )


def comparison_table(comps: Sequence[Comparison], title: str = "") -> str:
    rows = []
    if title:
        rows.append(title)
    rows.append(f"{'quantity':<44}{'paper':>9}{'measured':>10}{'ratio':>10}")
    rows.extend(c.row() for c in comps)
    return "\n".join(rows)


def miss_rate_report(
    sweep: SweepResult,
    paper_table: Mapping[int, float],
    l2_mb: int = 1,
    title: str = "",
) -> str:
    """Render a Table 1/2-style miss-rate comparison.

    Raises :class:`ConfigError` (not a bare lookup error) when
    ``l2_mb`` was not part of the sweep grid or a grid point is missing
    from a partial sweep.
    """
    if l2_mb not in sweep.l2_mbs:
        raise ConfigError(
            f"l2_mb={l2_mb} is not in the sweep grid {sweep.l2_mbs}"
        )
    measured = sweep.miss_rate_table(l2_mb)
    rows = [title or f"L2 miss rate at {l2_mb} MB — {sweep.name}"]
    rows.append(f"{'vector length':<16}{'paper %':>10}{'measured %':>12}")
    for v in sweep.vlens:
        paper = paper_table.get(v, float('nan'))
        rows.append(f"{v:>8}-bit    {paper:>10.0f}{100 * measured[v]:>12.1f}")
    return "\n".join(rows)


def backend_timing_report(
    name: str,
    exact_seconds: float,
    fast_seconds: float,
    l2_points: int,
    max_miss_rate_delta: float,
    best_agrees: bool,
) -> str:
    """Render a fast-vs-exact wall-clock and accuracy summary.

    ``exact_seconds``/``fast_seconds`` time the same L2 axis
    (``l2_points`` capacities at one VLEN) through each backend.  Both
    backends record the column once and evaluate the recording per L2
    size, differing only in the L2 criterion, so the speedup line
    compares the two criteria's amortized columns.
    """
    speedup = exact_seconds / fast_seconds if fast_seconds else float("inf")
    agree = "agrees" if best_agrees else "DISAGREES"
    return "\n".join([
        f"fast-path timing — {name} ({l2_points}-point L2 axis)",
        f"  exact backend   {exact_seconds:8.2f} s  "
        f"(1 recording + {l2_points} smoothed evaluations)",
        f"  fast backend    {fast_seconds:8.2f} s  "
        f"(1 recording + {l2_points} sharp evaluations)",
        f"  L2-axis speedup {speedup:8.2f}x",
        f"  max miss-rate delta {100 * max_miss_rate_delta:.2f}%; "
        f"best point {agree}",
    ])


def runtime_figure(sweep: SweepResult, title: str = "") -> str:
    """Render a Figure 3/4-style runtime grid with speedups."""
    grid = sweep.runtime_grid()
    rows = [title or f"Runtime (ms) over the co-design grid — {sweep.name}"]
    label = "VLEN / L2"
    header = f"{label:<12}" + "".join(
        f"{l:>9} MB" for l in sweep.l2_mbs
    )
    rows.append(header)
    for v in sweep.vlens:
        cells = "".join(f"{1e3 * grid[v][l]:>12.1f}" for l in sweep.l2_mbs)
        rows.append(f"{v:>8}-bit{cells}")
    rows.append("speedup vs smallest configuration:")
    for v in sweep.vlens:
        cells = "".join(
            f"{sweep.speedup(v, l):>12.2f}" for l in sweep.l2_mbs
        )
        rows.append(f"{v:>8}-bit{cells}")
    return "\n".join(rows)
