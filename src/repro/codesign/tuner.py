"""Per-layer schedule search behind ``repro tune``.

For each convolutional layer the tuner enumerates the DSL's schedule
space (:mod:`repro.schedule.space`), ranks every candidate with the
cheap surrogate (:mod:`repro.schedule.cost` — exact issue cycles,
stack-distance-style stall estimate), then *exactly* simulates the
top-k by running the generated kernels on the functional RVV machine
and replaying the captured trace through the timing model — the same
trace-exact path the kernel microbenchmarks use.

Trust gate: an exactly-simulated candidate is only reportable if its
machine output is bit-identical to the fp32 reference
(:func:`repro.conv.reference.gemm_fp32` semantics); a mismatch raises
— a tuner must never recommend a kernel that fails differential
validation.

The default schedule — the shipped kernel itself — is always part of
the exactly-simulated set and is the reported baseline, so the winner
is never worse than the shipped kernel.  Layers are shrunk to
tractable *proxy* problems (channel and pixel caps) before search —
the caps are recorded in the report and the provenance manifest.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.conv.layer import ConvLayerSpec
from repro.conv.reference import gemm_fp32
from repro.errors import ConfigError
from repro.kernels.buffers import GemmBuffers, Im2colBuffers
from repro.kernels.common import GemmGeometry, Im2colGeometry
from repro.kernels.gemm import gemm_kernel
from repro.kernels.im2col import im2col_kernel
from repro.rvv import Memory, RvvMachine, Tracer
from repro.schedule.algorithms import CopyAlgorithm, MatmulAlgorithm
from repro.schedule.cost import copy_surrogate, matmul_surrogate
from repro.schedule.ir import Schedule, default_copy_schedule
from repro.schedule.space import matmul_space, sample_space
from repro.sim.system import Simulator, SystemConfig

#: Tuner memory arena (enough for the largest proxy problems).
_ARENA_BYTES = 1 << 28


@dataclass
class TunedCandidate:
    """One schedule point with its surrogate (and maybe exact) cost."""

    schedule: Schedule
    surrogate_cycles: float
    exact_cycles: float | None = None
    validated: bool | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "schedule": self.schedule.describe(),
            "label": self.schedule.label(),
            "surrogate_cycles": self.surrogate_cycles,
            "exact_cycles": self.exact_cycles,
            "validated": self.validated,
        }


@dataclass
class LayerTuning:
    """Search result for one (proxy) layer."""

    layer: str
    problem: dict[str, Any]
    baseline_cycles: float
    candidates: list[TunedCandidate] = field(default_factory=list)
    top_k: int = 0

    @property
    def evaluated(self) -> list[TunedCandidate]:
        return [c for c in self.candidates if c.exact_cycles is not None]

    @property
    def best(self) -> TunedCandidate:
        return min(self.evaluated, key=lambda c: (c.exact_cycles, c.surrogate_cycles))

    @property
    def speedup(self) -> float:
        assert self.best.exact_cycles is not None
        return self.baseline_cycles / self.best.exact_cycles

    def to_dict(self) -> dict[str, Any]:
        return {
            "layer": self.layer,
            "problem": self.problem,
            "baseline_cycles": self.baseline_cycles,
            "top_k": self.top_k,
            "best": self.best.to_dict(),
            "speedup": self.speedup,
            "candidates": [c.to_dict() for c in self.candidates],
        }


@dataclass
class TuningReport:
    """The full ``repro tune`` result (JSON + text renderable)."""

    net: str
    config: dict[str, Any]
    seed: int
    budget: int | None
    top_k: int
    layers: list[LayerTuning] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "net": self.net,
            "config": self.config,
            "seed": self.seed,
            "budget": self.budget,
            "top_k": self.top_k,
            "layers": [t.to_dict() for t in self.layers],
        }

    def render(self) -> str:
        lines = [
            f"schedule search: {self.net} @ VLEN {self.config['vlen_bits']} "
            f"(seed {self.seed}, budget {self.budget}, top-k {self.top_k})",
            f"{'layer':<12} {'baseline':>12} {'best':>12} {'speedup':>8}  best schedule",
        ]
        for t in self.layers:
            best = t.best
            assert best.exact_cycles is not None
            lines.append(
                f"{t.layer:<12} {t.baseline_cycles:>12.0f} "
                f"{best.exact_cycles:>12.0f} {t.speedup:>7.2f}x  "
                f"{best.schedule.label()}")
        return "\n".join(lines)


def proxy_layer(
    layer: ConvLayerSpec, max_pixels: int, max_channels: int
) -> ConvLayerSpec:
    """Shrink a layer to a tractable search proxy.

    Channel extents are clamped to ``max_channels``; spatial extents
    are halved until the output plane fits ``max_pixels``.  Schedule
    *ranking* is what the proxy must preserve: the loop structure and
    reuse-distance regimes scale with the caps, the absolute cycle
    counts do not.
    """
    h, w = layer.h_in, layer.w_in
    spec = ConvLayerSpec(
        name=layer.name, c_in=min(layer.c_in, max_channels),
        h_in=h, w_in=w, c_out=min(layer.c_out, max_channels),
        ksize=layer.ksize, stride=layer.stride, pad=layer.pad)
    while spec.h_out * spec.w_out > max_pixels:
        h = max(layer.ksize, h // 2)
        w = max(layer.ksize, w // 2)
        shrunk = ConvLayerSpec(
            name=spec.name, c_in=spec.c_in, h_in=h, w_in=w,
            c_out=spec.c_out, ksize=spec.ksize, stride=spec.stride,
            pad=spec.pad)
        if (shrunk.h_out, shrunk.w_out) == (spec.h_out, spec.w_out):
            break  # cannot shrink further
        spec = shrunk
    return spec


def _stage(
    machine: RvvMachine, layer: ConvLayerSpec, seed: int
) -> tuple[Im2colGeometry, Im2colBuffers, GemmGeometry, GemmBuffers, np.ndarray]:
    """Stage one layer's im2col+GEMM problem on a fresh machine."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(
        (layer.c_in, layer.h_in, layer.w_in)).astype(np.float32)
    w = rng.standard_normal(
        (layer.c_out, layer.c_in, layer.ksize, layer.ksize)
    ).astype(np.float32)
    ig = Im2colGeometry(c_in=layer.c_in, h=layer.h_in, w=layer.w_in,
                        ksize=layer.ksize, stride=layer.stride,
                        pad=layer.pad)
    ibufs = Im2colBuffers.allocate(machine, ig)
    ibufs.load_input(machine, ig, x)
    gg = GemmGeometry(m=layer.c_out, kd=ig.rows, n=ig.cols,
                      vlen_elems=machine.vlen_bits // 32)
    gbufs = GemmBuffers(
        a=machine.memory.alloc_f32(gg.a_size, label="gemm.a"),
        b=ibufs.cols,
        c=machine.memory.alloc_f32(gg.c_size, label="gemm.c"))
    machine.memory.write_f32(gbufs.a, w.reshape(layer.c_out, -1))
    return ig, ibufs, gg, gbufs, w.reshape(layer.c_out, -1)


def _machine(config: SystemConfig) -> RvvMachine:
    return RvvMachine(config.vlen_bits, memory=Memory(_ARENA_BYTES),
                      tracer=Tracer(capture=True))


def _exact_cycles(
    layer: ConvLayerSpec, config: SystemConfig, seed: int,
    gemm_sched: Schedule,
) -> tuple[float, bool]:
    """(exact cycles, output bit-identical to the fp32 reference).

    Runs the im2col kernel (default copy schedule), then the GEMM
    kernel under ``gemm_sched``.
    """
    machine = _machine(config)
    ig, ibufs, gg, gbufs, a = _stage(machine, layer, seed)
    im2col_kernel(machine, ig, ibufs)
    gemm_kernel(machine, gg, gbufs, gemm_sched)
    cols = ibufs.read_cols(machine, ig)
    got = gbufs.read_c(machine, gg)
    ok = bool(np.array_equal(got, gemm_fp32(a, cols)))
    stats = Simulator(config).run_trace(machine.tracer, label=layer.name)
    return stats.cycles, ok


def tune_layer(
    layer: ConvLayerSpec,
    config: SystemConfig,
    seed: int = 0,
    budget: int | None = 24,
    top_k: int = 3,
    exhaustive: bool = False,
) -> LayerTuning:
    """Search the GEMM-stage schedule space of one (proxy) layer.

    Surrogate-ranks the sampled space, exactly simulates the top-k
    plus the default schedule (or everything when ``exhaustive``),
    and differentially validates every exactly-simulated candidate
    against the fp32 reference.  The default schedule (candidate 0,
    the shipped kernel) is the baseline.
    """
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    ig = Im2colGeometry(c_in=layer.c_in, h=layer.h_in, w=layer.w_in,
                        ksize=layer.ksize, stride=layer.stride,
                        pad=layer.pad)
    alg = MatmulAlgorithm(
        name="gemm", m=layer.c_out, n=ig.cols, kd=ig.rows,
        a_row_stride=ig.rows, b_row_stride=ig.cols, c_row_stride=ig.cols)
    space = sample_space(matmul_space(alg.m, alg.kd), budget, seed)
    copy_cost = copy_surrogate(
        CopyAlgorithm(ig), default_copy_schedule(), config).cycles

    candidates = [
        TunedCandidate(
            schedule=s,
            surrogate_cycles=copy_cost + matmul_surrogate(alg, s, config).cycles)
        for s in space
    ]
    ranked = sorted(range(len(candidates)),
                    key=lambda i: (candidates[i].surrogate_cycles, i))
    if exhaustive:
        chosen = list(range(len(candidates)))
    else:
        chosen = ranked[:top_k]
        if 0 not in chosen:
            chosen.append(0)  # the default schedule is always evaluated

    for i in chosen:
        cycles, ok = _exact_cycles(layer, config, seed,
                                   candidates[i].schedule)
        if not ok:
            raise ConfigError(
                f"generated kernel failed differential validation: "
                f"{layer.name} / {candidates[i].schedule.label()}")
        candidates[i].exact_cycles = cycles
        candidates[i].validated = ok
    baseline = candidates[0].exact_cycles
    assert baseline is not None  # the default is always simulated

    return LayerTuning(
        layer=layer.name,
        problem={"m": alg.m, "n": alg.n, "kd": alg.kd,
                 "c_in": layer.c_in, "h_in": layer.h_in,
                 "w_in": layer.w_in, "ksize": layer.ksize,
                 "stride": layer.stride, "pad": layer.pad,
                 "space_size": len(space)},
        baseline_cycles=baseline,
        candidates=candidates,
        top_k=top_k)


def tune_network(
    net: str,
    layers: list[ConvLayerSpec],
    config: SystemConfig,
    seed: int = 0,
    budget: int | None = 24,
    top_k: int = 3,
    max_pixels: int = 1024,
    max_channels: int = 64,
    exhaustive: bool = False,
) -> TuningReport:
    """Tune every conv layer of a network on proxy problems."""
    report = TuningReport(net=net, config=asdict(config), seed=seed,
                          budget=budget, top_k=top_k)
    for idx, layer in enumerate(layers):
        if not isinstance(layer, ConvLayerSpec):
            continue  # pooling layers have no schedule space
        proxy = proxy_layer(layer, max_pixels, max_channels)
        tuning = tune_layer(proxy, config, seed=seed + idx, budget=budget,
                            top_k=top_k, exhaustive=exhaustive)
        tuning.problem["original"] = {
            "c_in": layer.c_in, "h_in": layer.h_in, "w_in": layer.w_in,
            "c_out": layer.c_out}
        tuning.problem["proxy_caps"] = {
            "max_pixels": max_pixels, "max_channels": max_channels}
        report.layers.append(tuning)
    return report
