"""Network-level inference simulation (the paper's gem5 runs).

Composes the per-layer analytical models over a whole network prefix —
convolutions via the hybrid (or pure-GEMM baseline) policy, shortcuts
and pools via their streaming models — and reports per-layer plus
total statistics, like gem5's end-of-simulation stats dump.

Record/replay: building the phase models is the dominant cost of
:func:`simulate_inference` and depends on the configuration only
through the vector length.  :func:`record_inference` captures the
L2-independent state of every layer once — counts, issue and L2-stall
cycles, condensed traffic and the L1 split — and models each distinct
layer geometry once per call: layers that differ only in their names
share one row of the column.  The distinct layers' traffic is
condensed and L1-split in one batched pass over the whole column
(:class:`~repro.model.traffic.ColumnTraffic`), and the resulting
:class:`NetworkRecording` answers a whole L2 axis for every distinct
layer in one criterion call, under either sweep backend's L2
criterion.  Under ``exact`` the
results are bit-identical to a fresh :func:`simulate_inference` call;
``fast`` applies the sharp Mattson threshold.  Both sweep backends
record one column and replay it across the L2 axis.

The replay is a :class:`ColumnResult`: the layer templates once plus
per-size arrays of L2 misses, writebacks and DRAM stall cycles.  It
builds a point's :class:`NetworkResult` (``point(i)``) or writes that
point's ``to_dict()`` form (``point_dict(i)``) only on demand, so a
column that is only checkpointed or serialised never builds per-point
objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from numbers import Integral

import numpy as np

from repro.conv.layer import ConvAlgorithm, ConvLayerSpec, choose_algorithm
from repro.errors import ConfigError
from repro.kernels.tuple_mult import SLIDEUP
from repro.model.aux_model import maxpool_model, shortcut_model
from repro.model.layer_model import NetworkResult, layer_phases
from repro.model.traffic import (
    ColumnSplit,
    ColumnTraffic,
    CondensedTraffic,
    L1Split,
    PhaseModel,
    model_counts,
    stats_from_model,
)
from repro.nets.layers import LayerSpec, MaxPoolSpec, ShortcutSpec
from repro.obs import Span, counters_from_stats, current_tracer, span
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
    raise _unknown(layer)


def _unknown(layer: object) -> ConfigError:
    return ConfigError(f"unknown layer type {type(layer).__name__}")


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
            if not isinstance(layer, LayerSpec):
                raise _unknown(layer)
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
    ``split`` is the layer's row of the recording's column: its
    condensed traffic resolved at the recorded L1.
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


def _stats_dict(
    template: SimStats, misses: int, writebacks: int, dram_stall: float
) -> dict:
    """``SimStats.to_dict()`` of ``template`` completed with one L2
    size's misses, writebacks and DRAM stall cycles, without building
    the stats: every derived value is the expression of the
    ``SimStats``/``HierarchyStats``/``CacheStats`` property it stands
    for, evaluated in the same order, so the floats are bit-identical.
    The completed stats have no evictions and no L1 writebacks."""
    h = template.hierarchy
    l1, l2 = h.l1, h.l2
    cycles = template.issue_cycles + template.l2_stall_cycles + dram_stall
    seconds = cycles / (template.freq_ghz * 1e9)
    dram_bytes = (misses + writebacks) * h.line_bytes
    return {
        "label": template.label,
        "freq_ghz": template.freq_ghz,
        "cycles": cycles,
        "seconds": seconds,
        "issue_cycles": template.issue_cycles,
        "l2_stall_cycles": template.l2_stall_cycles,
        "dram_stall_cycles": dram_stall,
        "instructions": dict(template.instrs),
        "elems": dict(template.elems),
        "flops": template.flops,
        "gflops": template.flops / seconds / 1e9 if cycles else 0.0,
        "l1_accesses": l1.accesses,
        "l1_misses": l1.misses,
        "l2_accesses": l2.accesses,
        "l2_misses": misses,
        "l2_miss_rate": misses / l2.accesses if l2.accesses else 0.0,
        "dram_bytes": dram_bytes,
        "arithmetic_intensity": (
            None if dram_bytes == 0 else template.flops / dram_bytes
        ),
        "hierarchy": {
            "l1": {"accesses": l1.accesses, "misses": l1.misses,
                   "evictions": 0, "writebacks": 0},
            "l2": {"accesses": l2.accesses, "misses": misses,
                   "evictions": 0, "writebacks": writebacks},
            "line_bytes": h.line_bytes,
        },
    }


@dataclass(frozen=True, eq=False)
class ColumnResult(Sequence[NetworkResult]):
    """One replayed VLEN column: a network's results at every size of
    an L2 axis, held as arrays until a caller asks for a point.

    ``templates`` holds each layer's L2-independent :class:`SimStats`,
    then the network total's.  ``misses``, ``writebacks`` (``int64``)
    and ``dram_stall`` (``float64``) are shaped (layers + 1) x sizes,
    the last row being the network total; column ``i`` answers
    ``l2_mbs[i]``.

    :meth:`point` builds the ``i``-th :class:`NetworkResult` (fresh
    objects on every call) and :meth:`point_dict` its ``to_dict()``
    without building it.  As a sequence the column reads like the list
    of points it replaces: indexing, iterating and comparing with a
    list materialise points.
    """

    name: str
    l2_mbs: tuple[int, ...]
    templates: tuple[SimStats, ...]
    misses: np.ndarray
    writebacks: np.ndarray
    dram_stall: np.ndarray

    @cached_property
    def _rows(self) -> tuple[list, list, list]:
        """The arrays as nested Python lists (ints and floats, never
        NumPy scalars), converted once per column."""
        return (self.misses.tolist(), self.writebacks.tolist(),
                self.dram_stall.tolist())

    def __getstate__(self) -> dict:
        # A pickled column ships its arrays, not their list copies.
        state = dict(self.__dict__)
        state.pop("_rows", None)
        return state

    def __len__(self) -> int:
        return len(self.l2_mbs)

    def __getitem__(self, i):  # type: ignore[override]
        if isinstance(i, slice):
            return [self.point(j) for j in range(len(self))[i]]
        return self.point(range(len(self))[i])

    def __iter__(self) -> Iterator[NetworkResult]:
        return (self.point(i) for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ColumnResult, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def cycles(self, i: int) -> float:
        """Network-total cycles at ``l2_mbs[i]``; equals
        ``point(i).cycles``."""
        total = self.templates[-1]
        return (total.issue_cycles + total.l2_stall_cycles
                + self._rows[2][-1][i])

    def seconds(self, i: int) -> float:
        """Network-total seconds at ``l2_mbs[i]``; equals
        ``point(i).total.seconds``."""
        return self.cycles(i) / (self.templates[-1].freq_ghz * 1e9)

    def l2_miss_rate(self, i: int) -> float:
        """Network-total L2 miss rate at ``l2_mbs[i]``; equals
        ``point(i).total.l2_miss_rate``."""
        accesses = self.templates[-1].hierarchy.l2.accesses
        return self._rows[0][-1][i] / accesses if accesses else 0.0

    def point(self, i: int) -> NetworkResult:
        """The result at ``l2_mbs[i]`` as fresh objects; the only place
        a replayed point's :class:`SimStats` are built."""
        stats = []
        for t, m, w, d in zip(self.templates, *self._rows):
            l1, l2 = t.hierarchy.l1, t.hierarchy.l2
            stats.append(SimStats(
                freq_ghz=t.freq_ghz,
                issue_cycles=t.issue_cycles,
                l2_stall_cycles=t.l2_stall_cycles,
                dram_stall_cycles=d[i],
                instrs=dict(t.instrs),
                elems=dict(t.elems),
                flops=t.flops,
                hierarchy=HierarchyStats(
                    l1=CacheStats(accesses=l1.accesses, misses=l1.misses),
                    l2=CacheStats(accesses=l2.accesses, misses=m[i],
                                  writebacks=w[i]),
                    line_bytes=t.hierarchy.line_bytes,
                ),
                label=t.label,
            ))
        *per_layer, total = stats
        return NetworkResult(name=self.name, per_layer=tuple(per_layer),
                             total=total)

    def point_dict(self, i: int) -> dict:
        """``point(i).to_dict()``, written straight from the arrays;
        the returned dict owns every nested dict."""
        *per_layer, total = (
            _stats_dict(t, m[i], w[i], d[i])
            for t, m, w, d in zip(self.templates, *self._rows)
        )
        return {"name": self.name, "per_layer": per_layer, "total": total}


@dataclass(frozen=True)
class NetworkRecording:
    """A network's L2-independent state, replayable across the L2 axis.

    ``config`` is the record-time configuration; :meth:`evaluate`
    answers any L2 sizes under it and, when a tracer is installed,
    emits per size the same ``simulate_inference`` / per-``layer`` span
    structure (with identical counters) as the live simulation, so
    traces of replayed and fresh runs are indistinguishable.
    ``total`` is the L2-independent part of the network total: the
    layer templates merged in layer order.  ``column`` holds the
    distinct layers' traffic, condensed and L1-split in one pass; each
    layer's ``split`` is its row, and layers recorded from one geometry
    share one :class:`L1Split` object.
    """

    name: str
    config: SystemConfig
    hybrid: bool
    variant: str
    layers: tuple[LayerRecording, ...]
    total: SimStats
    column: ColumnSplit

    def evaluate(
        self, l2_mbs: Sequence[int], mode: str = BACKEND_EXACT
    ) -> ColumnResult:
        """Replay the recording at every L2 size of ``l2_mbs`` (in MB,
        any order, duplicates allowed) under the ``mode`` backend's L2
        criterion; one point per size, in input order.  Under ``exact``
        each point is bit-identical to ``simulate_inference(name,
        layers, config.with_(l2_mb=l2_mb), ...)``.

        One criterion call answers every distinct layer at every size;
        each layer takes its row.  The L2-independent part of the
        network total is the recording's ``total``; per size only the
        L2 misses, writebacks and DRAM stall cycles accumulate, in
        layer order (the stall with a sequential ``cumsum``), so every
        total equals a per-point ``SimStats.merge`` chain exactly.  The
        result stays arrays (:class:`ColumnResult`); untraced, no
        per-point object is built here.
        """
        if mode not in BACKENDS:
            raise ConfigError(
                f"unknown L2 criterion {mode!r} (expected one of {BACKENDS})"
            )
        axis = grid_axis(l2_mbs)
        criterion = (ColumnSplit.sharp_l2 if mode == BACKEND_FAST
                     else ColumnSplit.smooth_l2)
        misses, writebacks = criterion(
            self.column, [mb * 1024 * 1024 for mb in axis])
        dram = self.config.memory_timings().dram_stall_cycles(misses, writebacks)
        rows = [rec.split.row for rec in self.layers]
        misses, writebacks, dram = misses[rows], writebacks[rows], dram[rows]
        column = ColumnResult(
            name=self.name, l2_mbs=tuple(axis),
            templates=tuple(rec.template for rec in self.layers)
            + (self.total,),
            misses=np.vstack([misses, misses.sum(axis=0)]),
            writebacks=np.vstack([writebacks, writebacks.sum(axis=0)]),
            dram_stall=np.vstack([dram, dram.cumsum(axis=0)[-1]]),
        )
        if current_tracer() is not None:
            for i, l2_mb in enumerate(axis):
                self._trace(l2_mb, column.point(i))
        return column

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


def _template(
    label: str, counts: tuple[float, dict[str, int], dict[str, int], int],
    l1_accesses: int, l1_misses: int, config: SystemConfig,
) -> SimStats:
    """The L2-independent half of ``stats_from_model(phases, config,
    label)`` from the phases' ``model_counts`` and the L1 counters of
    their split of ``evaluate_hierarchy``: its counts, issue and
    L2-stall cycles and L1 counters, in fresh objects."""
    issue, instrs, elems, flops = counts
    return SimStats(
        freq_ghz=config.freq_ghz,
        issue_cycles=issue,
        l2_stall_cycles=config.memory_timings().l2_stall_cycles(l1_misses),
        instrs=dict(instrs),
        elems=dict(elems),
        flops=flops,
        hierarchy=HierarchyStats(
            l1=CacheStats(accesses=l1_accesses, misses=l1_misses),
            l2=CacheStats(accesses=l1_misses),
            line_bytes=config.line_bytes,
        ),
        label=label,
    )


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
    ``simulate_inference(name, layers, cfg.with_(l2_mb=l2))``.

    Layers that differ only in their names (VGG16's repeated 3x3
    convolutions, YOLOv3's residual blocks) are modelled once per call:
    a later such layer shares the first one's immutable
    :class:`~repro.model.traffic.L1Split` and gets its own template,
    labelled with its own name.  Each distinct layer's traffic is
    gathered (:meth:`CondensedTraffic.from_phases`), and all of them
    are condensed and L1-split together, in one
    :class:`~repro.model.traffic.ColumnTraffic` pass.

    Each layer opens a ``record_layer`` span with the same label and
    counters either way; the first of a geometry has a
    ``phase_models`` child, a later one the attribute ``reused_from``
    (the first one's name) instead.  One ``condense`` span (attributes
    ``layers``, ``distances``, ``regions``) follows the layers; their
    counters, which need its L1 counts, are added when it closes.  The
    network total's template is merged once here, in layer order.
    """
    if not layers:
        raise ConfigError("network has no layers")
    # Per label-free layer: the first such layer's name, the label's
    # "[algorithm]" tag, the model counts and the layer's column row.
    seen: dict[LayerSpec, tuple[str, str, tuple, int]] = {}
    gathered: list[CondensedTraffic] = []
    # Per layer: its span, label, model counts and column row.
    opened: list[tuple[Span, str, tuple, int]] = []
    with span("record_inference", network=name,
              vlen_bits=config.vlen_bits, hybrid=hybrid, variant=variant):
        for layer in layers:
            if not isinstance(layer, LayerSpec):
                raise _unknown(layer)
            key = replace(layer, name="")
            with span("record_layer", label=layer.name) as layer_span:
                first = seen.get(key)
                if first is None:
                    with span("phase_models"):
                        label, phases = layer_phase_models(
                            layer, config, hybrid=hybrid, variant=variant
                        )
                    first = seen[key] = (
                        layer.name, label[len(layer.name):],
                        model_counts(phases, config), len(gathered))
                    gathered.append(CondensedTraffic.from_phases(phases))
                else:
                    layer_span.set_attrs(reused_from=first[0])
                _, tag, counts, row = first
                layer_span.set_attrs(label=layer.name + tag)
            opened.append((layer_span, layer.name + tag, counts, row))
        with span("condense", layers=len(gathered)) as condense_span:
            traffic = ColumnTraffic.condense(gathered)
            column = traffic.l1_split(config.l1_kb * 1024, config.line_bytes)
            condense_span.set_attrs(distances=traffic.eff_unique.size,
                                    regions=traffic.region_unique.size)
        splits = [L1Split(column, row) for row in range(len(gathered))]
        accesses, misses = column.accesses.tolist(), column.misses.tolist()
        recs: list[LayerRecording] = []
        total = SimStats(freq_ghz=config.freq_ghz, label=f"{name} total")
        for layer_span, label, counts, row in opened:
            t = _template(label, counts, accesses[row], misses[row], config)
            layer_span.add_counters(
                instrs=t.total_instrs,
                flops=t.flops,
                issue_cycles=t.issue_cycles,
                l1_accesses=t.hierarchy.l1.accesses,
                l1_misses=t.hierarchy.l1.misses,
            )
            recs.append(LayerRecording(template=t, split=splits[row]))
            total.merge(t)
    return NetworkRecording(
        name=name, config=config, hybrid=hybrid, variant=variant,
        layers=tuple(recs), total=total, column=column,
    )


def winograd_layer_count(layers: list[LayerSpec]) -> int:
    """How many layers the hybrid policy sends to Winograd."""
    return sum(
        1
        for l in layers
        if isinstance(l, ConvLayerSpec)
        and choose_algorithm(l) is ConvAlgorithm.WINOGRAD
    )
