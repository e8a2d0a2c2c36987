"""Per-layer simulation via the analytical models.

This is the experiment driver equivalent of running a layer through
gem5: it picks the layer's algorithm (the paper's hybrid policy),
builds the phase models, and evaluates them on a
:class:`~repro.sim.SystemConfig`.  Whole networks run through
:func:`repro.nets.inference.simulate_inference`, which returns the
:class:`NetworkResult` defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.conv.layer import ConvAlgorithm, ConvLayerSpec, choose_algorithm
from repro.errors import ConfigError
from repro.kernels.common import (
    Direct1x1Geometry,
    GemmGeometry,
    Im2colGeometry,
    WinogradGeometry,
)
from repro.model.direct_model import direct1x1_model
from repro.kernels.tuple_mult import SLIDEUP
from repro.model.gemm_model import gemm_model, im2col_model_for
from repro.model.traffic import PhaseModel, stats_from_model
from repro.model.winograd_model import winograd_layer_model
from repro.obs import counters_from_stats, span
from repro.schedule.ir import Schedule
from repro.sim.stats import SimStats
from repro.sim.system import SystemConfig


def layer_phases(
    spec: ConvLayerSpec,
    config: SystemConfig,
    algorithm: ConvAlgorithm | None = None,
    variant: str = SLIDEUP,
    gemm_schedule: Schedule | None = None,
) -> list[PhaseModel]:
    """Phase models for one convolutional layer on one configuration.

    ``gemm_schedule`` is the GEMM stage's matmul schedule under
    im2col+GEMM (``None``: the shipped kernel's); the other stages
    model their shipped kernels.
    """
    algo = algorithm if algorithm is not None else choose_algorithm(spec)
    lanes = config.lanes
    if algo is ConvAlgorithm.WINOGRAD:
        geom = WinogradGeometry(
            c_in=spec.c_in, h=spec.h_in, w=spec.w_in, c_out=spec.c_out,
            pad=spec.pad, vlen_elems=lanes,
        )
        return winograd_layer_model(geom, variant=variant)
    if algo is ConvAlgorithm.IM2COL_GEMM:
        ig = Im2colGeometry(
            c_in=spec.c_in, h=spec.h_in, w=spec.w_in,
            ksize=spec.ksize, stride=spec.stride, pad=spec.pad,
        )
        gg = GemmGeometry(
            m=spec.c_out, kd=ig.rows, n=ig.cols, vlen_elems=lanes,
        )
        cols_bytes = ig.cols_size * 4.0
        return [
            im2col_model_for(ig, lanes),
            gemm_model(gg, cols_distance=cols_bytes, schedule=gemm_schedule),
        ]
    if algo is ConvAlgorithm.DIRECT:
        if spec.ksize != 1:
            raise ConfigError(
                f"the direct kernel handles 1x1 layers only, got "
                f"{spec.ksize}x{spec.ksize} in {spec.name}"
            )
        dg = Direct1x1Geometry(
            c_in=spec.c_in, h=spec.h_in, w=spec.w_in, c_out=spec.c_out,
            stride=spec.stride, vlen_elems=lanes,
        )
        return [direct1x1_model(dg)]
    raise ConfigError(f"no analytical model for algorithm {algo}")


def simulate_layer(
    spec: ConvLayerSpec,
    config: SystemConfig,
    algorithm: ConvAlgorithm | None = None,
    variant: str = SLIDEUP,
) -> SimStats:
    """Simulate one layer; label records layer name and algorithm."""
    algo = algorithm if algorithm is not None else choose_algorithm(spec)
    label = f"{spec.name}[{algo.value}]"
    with span("layer", label=label,
              freq_ghz=config.freq_ghz) as layer_span:
        phases = layer_phases(spec, config, algo, variant)
        stats = stats_from_model(phases, config, label=label)
        layer_span.add_counters(**counters_from_stats(stats))
    return stats


@dataclass(frozen=True)
class NetworkResult:
    """Per-layer and total statistics of one network inference."""

    name: str
    per_layer: tuple[SimStats, ...]
    total: SimStats

    @property
    def seconds(self) -> float:
        return self.total.seconds

    @property
    def cycles(self) -> float:
        return self.total.cycles

    def to_dict(self) -> dict:
        """JSON-serializable form (sweep checkpoints, tooling)."""
        return {
            "name": self.name,
            "per_layer": [s.to_dict() for s in self.per_layer],
            "total": self.total.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkResult":
        """Inverse of :meth:`to_dict` (sweep checkpoint resume)."""
        return cls(
            name=str(d["name"]),
            per_layer=tuple(
                SimStats.from_dict(s) for s in d.get("per_layer", [])
            ),
            total=SimStats.from_dict(d["total"]),
        )
