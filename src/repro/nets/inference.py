"""Network-level inference simulation (the paper's gem5 runs).

Composes the per-layer analytical models over a whole network prefix —
convolutions via the hybrid (or pure-GEMM baseline) policy, shortcuts
and pools via their streaming models — and reports per-layer plus
total statistics, like gem5's end-of-simulation stats dump.

Record/replay: building the phase models is the dominant cost of
:func:`simulate_inference` and depends on the configuration only
through the vector length.  :func:`record_inference` captures the
L2-independent state of every layer once — counts, issue and L2-stall
cycles, condensed traffic and the L1 split; the resulting
:class:`NetworkRecording` then answers a whole L2 axis in one pass
under either sweep backend's L2 criterion.  Under ``exact`` the
results are bit-identical to a fresh :func:`simulate_inference` call;
``fast`` applies the sharp Mattson threshold.  Both sweep backends
record one column and replay it across the L2 axis.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from repro.conv.layer import ConvAlgorithm, ConvLayerSpec, choose_algorithm
from repro.errors import ConfigError
from repro.kernels.tuple_mult import SLIDEUP
from repro.model.aux_model import maxpool_model, shortcut_model
from repro.model.layer_model import NetworkResult, layer_phases
from repro.model.traffic import (
    CondensedTraffic,
    L1Split,
    PhaseModel,
    model_counts,
    stats_from_model,
)
from repro.nets.layers import LayerSpec, MaxPoolSpec, ShortcutSpec
from repro.obs import counters_from_stats, current_tracer, span
from repro.sim.cache import CacheStats, HierarchyStats
from repro.sim.stats import SimStats
from repro.sim.system import SystemConfig

#: The sweep's backend tags, one per L2 criterion a recording answers
#: (re-exported by :mod:`repro.codesign.sweep`, recorded on every sweep
#: result, checkpoint and serve point key): ``exact`` smooths the L2
#: hit/miss transition like :func:`~repro.model.traffic.evaluate_hierarchy`,
#: ``fast`` applies the sharp fully-associative Mattson threshold.
BACKEND_EXACT = "exact"
BACKEND_FAST = "fast"
BACKENDS = (BACKEND_EXACT, BACKEND_FAST)


def layer_phase_models(
    layer: LayerSpec,
    config: SystemConfig,
    hybrid: bool = True,
    variant: str = SLIDEUP,
) -> tuple[str, list[PhaseModel]]:
    """Label and phase models of one layer under the sweep's policy.

    The phase models depend on the configuration only through the
    vector length (``config.lanes``), never the cache sizes — the
    property the co-design sweep's fast backend exploits by building
    them once per VLEN and reusing them across the whole L2 axis.
    """
    if isinstance(layer, ConvLayerSpec):
        algo = choose_algorithm(layer, hybrid=hybrid)
        phases = layer_phases(layer, config, algorithm=algo, variant=variant)
        return f"{layer.name}[{algo.value}]", phases
    if isinstance(layer, ShortcutSpec):
        return f"{layer.name}[shortcut]", [shortcut_model(layer, config.lanes)]
    if isinstance(layer, MaxPoolSpec):
        return f"{layer.name}[maxpool]", [maxpool_model(layer, config.lanes)]
    raise ConfigError(f"unknown layer type {type(layer).__name__}")


def simulate_inference(
    name: str,
    layers: list[LayerSpec],
    config: SystemConfig,
    hybrid: bool = True,
    variant: str = SLIDEUP,
) -> NetworkResult:
    """Simulate one inference pass over a network prefix.

    Args:
        name: report label (e.g. "yolov3-20L").
        layers: layer specs from :mod:`repro.nets`.
        config: the simulated system configuration.
        hybrid: the paper's hybrid policy (Winograd where eligible) vs
            the pure im2col+GEMM baseline.
        variant: tuple-multiplication variant for Winograd layers.

    Returns:
        A :class:`~repro.model.layer_model.NetworkResult`.
    """
    if not layers:
        raise ConfigError("network has no layers")
    per_layer: list[SimStats] = []
    total = SimStats(freq_ghz=config.freq_ghz, label=f"{name} total")
    with span("simulate_inference", network=name,
              vlen_bits=config.vlen_bits, l2_mb=config.l2_mb,
              freq_ghz=config.freq_ghz,
              hybrid=hybrid, variant=variant) as net_span:
        for layer in layers:
            with span("layer", label=layer.name) as layer_span:
                label, phases = layer_phase_models(
                    layer, config, hybrid=hybrid, variant=variant
                )
                stats = stats_from_model(phases, config, label=label)
                layer_span.set_attrs(label=label)
                layer_span.add_counters(**counters_from_stats(stats))
            per_layer.append(stats)
            total.merge(stats)
        net_span.add_counters(**counters_from_stats(total))
    return NetworkResult(name=name, per_layer=tuple(per_layer), total=total)


@dataclass(frozen=True)
class LayerRecording:
    """One layer's L2-independent state.

    ``template`` holds everything of the layer's :class:`SimStats` that
    the L2 size cannot change — label, instruction/element/flop counts,
    issue and L2-stall cycles, the L1 counters and the L2 access count.
    ``split`` is the layer's condensed traffic resolved at the recorded
    L1, answerable under either L2 criterion.
    """

    template: SimStats
    split: L1Split


def grid_axis(values: Sequence[int], field: str = "l2_mbs") -> list[int]:
    """One co-design grid axis (``vlens`` or ``l2_mbs``) as Python ints.

    Rejects, with a :class:`ConfigError` naming ``field``, anything but
    a non-empty sequence of positive integers: ``bool``, float and
    string values are errors, never truncated.
    """
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ConfigError(
            f"{field} must be a sequence of positive integers, "
            f"got {values!r}")
    items = list(values)
    if not items:
        raise ConfigError(f"{field} must be non-empty")
    return [positive_int(v, field) for v in items]


def positive_int(value: object, field: str) -> int:
    """``value`` as a Python int, if it is a positive integer.

    ``bool``, fractional, string and non-positive values raise a
    :class:`ConfigError` naming ``field``; nothing is truncated or
    coerced.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value <= 0:
        raise ConfigError(f"{field} takes positive integers only, got {value!r}")
    return int(value)


def _at_l2(
    template: SimStats, misses: int, writebacks: int, dram_stall: float
) -> SimStats:
    """A fresh copy of ``template`` completed with one L2 size's
    misses, writebacks and DRAM stall cycles."""
    l1, l2 = template.hierarchy.l1, template.hierarchy.l2
    return SimStats(
        freq_ghz=template.freq_ghz,
        issue_cycles=template.issue_cycles,
        l2_stall_cycles=template.l2_stall_cycles,
        dram_stall_cycles=dram_stall,
        instrs=dict(template.instrs),
        elems=dict(template.elems),
        flops=template.flops,
        hierarchy=HierarchyStats(
            l1=CacheStats(accesses=l1.accesses, misses=l1.misses),
            l2=CacheStats(accesses=l2.accesses, misses=misses,
                          writebacks=writebacks),
            line_bytes=template.hierarchy.line_bytes,
        ),
        label=template.label,
    )


@dataclass(frozen=True)
class NetworkRecording:
    """A network's L2-independent state, replayable across the L2 axis.

    ``config`` is the record-time configuration; :meth:`evaluate`
    answers any L2 sizes under it and, when a tracer is installed,
    emits per size the same ``simulate_inference`` / per-``layer`` span
    structure (with identical counters) as the live simulation, so
    traces of replayed and fresh runs are indistinguishable.
    """

    name: str
    config: SystemConfig
    hybrid: bool
    variant: str
    layers: tuple[LayerRecording, ...]

    def evaluate(
        self, l2_mbs: Sequence[int], mode: str = BACKEND_EXACT
    ) -> list[NetworkResult]:
        """Replay the recording at every L2 size of ``l2_mbs`` (in MB,
        any order, duplicates allowed) under the ``mode`` backend's L2
        criterion; one result per size, in input order.  Under
        ``exact`` each is bit-identical to ``simulate_inference(name,
        layers, config.with_(l2_mb=l2_mb), ...)``.

        Each layer answers the whole axis in one criterion call.  The
        L2-independent part of the network total is merged once, in
        layer order; per size only the L2 misses, writebacks and DRAM
        stall cycles accumulate, in the same order, so every total
        equals a per-point ``SimStats.merge`` chain exactly.
        """
        if mode not in BACKENDS:
            raise ConfigError(
                f"unknown L2 criterion {mode!r} (expected one of {BACKENDS})"
            )
        axis = grid_axis(l2_mbs)
        criterion = L1Split.sharp_l2 if mode == BACKEND_FAST else L1Split.smooth_l2
        timings = self.config.memory_timings()
        l2_bytes = [mb * 1024 * 1024 for mb in axis]
        base = SimStats(freq_ghz=self.config.freq_ghz, label=f"{self.name} total")
        total_misses = np.zeros(len(axis), dtype=np.int64)
        total_writebacks = np.zeros(len(axis), dtype=np.int64)
        total_dram = np.zeros(len(axis))
        columns = []
        for rec in self.layers:
            misses_f, writebacks_f = criterion(rec.split, l2_bytes)
            misses = np.rint(misses_f).astype(np.int64)
            writebacks = np.rint(writebacks_f).astype(np.int64)
            dram = timings.dram_stall_cycles(misses, writebacks)
            base.merge(rec.template)
            total_misses += misses
            total_writebacks += writebacks
            total_dram += dram
            columns.append((rec.template, misses.tolist(),
                            writebacks.tolist(), dram.tolist()))
        columns.append((base, total_misses.tolist(),
                        total_writebacks.tolist(), total_dram.tolist()))
        results = []
        for i in range(len(axis)):
            *per_layer, total = (_at_l2(t, m[i], w[i], d[i])
                                 for t, m, w, d in columns)
            results.append(NetworkResult(
                name=self.name, per_layer=tuple(per_layer), total=total))
        if current_tracer() is not None:
            for l2_mb, result in zip(axis, results):
                self._trace(l2_mb, result)
        return results

    def _trace(self, l2_mb: int, result: NetworkResult) -> None:
        """Emit one replayed point's ``simulate_inference`` span tree.

        The axis is computed before any tree is emitted, so these spans
        carry the structure and counters of the point; their wall time
        is the emission's, and the replay's own time falls to the
        caller's span."""
        cfg = self.config
        with span("simulate_inference", network=self.name,
                  vlen_bits=cfg.vlen_bits, l2_mb=l2_mb,
                  freq_ghz=cfg.freq_ghz,
                  hybrid=self.hybrid, variant=self.variant) as net_span:
            for stats in result.per_layer:
                with span("layer", label=stats.label) as layer_span:
                    layer_span.add_counters(**counters_from_stats(stats))
            net_span.add_counters(**counters_from_stats(result.total))


def _record_layer(
    label: str, phases: list[PhaseModel], traffic: CondensedTraffic,
    config: SystemConfig,
) -> LayerRecording:
    """The L2-independent half of ``stats_from_model(phases, config,
    label)``: its counts, issue and L2-stall cycles, and the L1 split of
    ``evaluate_hierarchy``."""
    issue, instrs, elems, flops = model_counts(phases, config)
    split = traffic.l1_split(config.l1_kb * 1024, config.line_bytes)
    template = SimStats(
        freq_ghz=config.freq_ghz,
        issue_cycles=issue,
        l2_stall_cycles=config.memory_timings().l2_stall_cycles(split.misses),
        instrs=instrs,
        elems=elems,
        flops=flops,
        hierarchy=HierarchyStats(
            l1=CacheStats(accesses=split.accesses, misses=split.misses),
            l2=CacheStats(accesses=split.misses),
            line_bytes=config.line_bytes,
        ),
        label=label,
    )
    return LayerRecording(template=template, split=split)


def record_inference(
    name: str,
    layers: list[LayerSpec],
    config: SystemConfig,
    hybrid: bool = True,
    variant: str = SLIDEUP,
) -> NetworkRecording:
    """Record a network's L2-independent state for replay — the one
    per-VLEN pass both sweep backends share.

    The phase models depend on the configuration only through the
    vector length (see :func:`layer_phase_models`), and the L1 is fixed
    by ``config``, so a recording made at any L2 size evaluates
    bit-identically at every other:
    ``record_inference(name, layers, cfg).evaluate([l2])[0]`` equals
    ``simulate_inference(name, layers, cfg.with_(l2_mb=l2))``.  Each
    layer opens a ``record_layer`` span with ``phase_models`` and
    ``condense`` children.
    """
    if not layers:
        raise ConfigError("network has no layers")
    recs: list[LayerRecording] = []
    with span("record_inference", network=name,
              vlen_bits=config.vlen_bits, hybrid=hybrid, variant=variant):
        for layer in layers:
            with span("record_layer", label=layer.name) as layer_span:
                with span("phase_models"):
                    label, phases = layer_phase_models(
                        layer, config, hybrid=hybrid, variant=variant
                    )
                with span("condense"):
                    traffic = CondensedTraffic.from_phases(phases)
                rec = _record_layer(label, phases, traffic, config)
                t = rec.template
                layer_span.set_attrs(label=label)
                layer_span.add_counters(
                    instrs=t.total_instrs,
                    flops=t.flops,
                    issue_cycles=t.issue_cycles,
                    l1_accesses=t.hierarchy.l1.accesses,
                    l1_misses=t.hierarchy.l1.misses,
                )
            recs.append(rec)
    return NetworkRecording(
        name=name, config=config, hybrid=hybrid, variant=variant,
        layers=tuple(recs),
    )


def winograd_layer_count(layers: list[LayerSpec]) -> int:
    """How many layers the hybrid policy sends to Winograd."""
    return sum(
        1
        for l in layers
        if isinstance(l, ConvLayerSpec)
        and choose_algorithm(l) is ConvAlgorithm.WINOGRAD
    )
