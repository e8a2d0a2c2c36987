"""The co-design parameter sweep (Figures 3/4, Tables 1/2).

The paper tunes two hardware parameters on its simulated RISC-VV
processor: the vector length (512 — 4096 bits, the range the gem5 fork
supports) and the L2 cache size (1 — 256 MB).  :func:`codesign_sweep`
runs a network over the full grid — serially or fanned out over worker
processes with per-point checkpointing (see
:mod:`repro.codesign.executor`) — and :class:`SweepResult` answers the
paper's questions: runtime per point, speedups relative to the
smallest configuration, and L2 miss-rate tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ConfigError
from repro.kernels.tuple_mult import SLIDEUP
from repro.model.layer_model import NetworkResult
from repro.nets.inference import BACKEND_EXACT, BACKEND_FAST, BACKENDS
from repro.nets.layers import LayerSpec
from repro.sim.system import SystemConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.codesign.executor import SweepProgress
    from repro.obs import BenchRecorder, EventSink

#: The paper's sweep grids.
PAPER_VLENS = (512, 1024, 2048, 4096)
PAPER_L2_MBS = (1, 16, 64, 128, 256)

# The backend tags (provenance recorded on every result and checkpoint)
# are defined next to the recording both backends evaluate
# (repro.nets.inference.record_inference, one per VLEN); the backends
# differ only in the L2 hit criterion.
#
# Error model of the fast backend (stated, and enforced by the
# differential test tier): it applies the sharp fully-associative
# Mattson criterion to the L2 — an access misses a capacity-C LRU cache
# iff its reuse distance is at least C — where the exact backend
# smooths the hit/miss transition to model set-associative conflict
# behavior (repro.model.traffic.SHARPNESS).  Every L2-independent
# quantity (instruction counts, issue cycles, L1 statistics, L2
# accesses) is bit-identical between the backends, because both read
# the same recording; L2 miss counts differ only for traffic whose
# reuse distance sits near the capacity, so per-point L2 miss-*rate*
# deltas are bounded by the smoothing mass around the threshold
# (``--mode validate`` measures it; the differential tests pin it below
# MISS_RATE_BOUND).  Use the exact backend when absolute per-point miss
# counts matter; the fast backend preserves the sweep's shape — miss
# curves stay monotone in capacity — and its best point.

#: Stated differential bound on |fast - exact| total L2 miss rate per
#: sweep point (the associativity/smoothing error the fast backend
#: accepts; see the error model above and tests/test_sweep_fastpath.py).
MISS_RATE_BOUND = 0.15

#: Sweep modes accepted by :func:`codesign_sweep`'s ``mode`` argument
#: (``validate`` is served by :func:`validate_codesign_sweep`, which
#: runs both backends and reports their deltas).
MODES = (BACKEND_EXACT, BACKEND_FAST, "validate")


@dataclass(frozen=True)
class SweepResult:
    """Results of one network over the (VLEN x L2) grid.

    Grids are normalized at construction (sorted, deduplicated), so the
    axes read smallest-to-largest regardless of the order the caller
    listed them in.  ``results`` may cover only part of the grid while
    a checkpointed run is being resumed; :meth:`merge` combines such
    partial results and :attr:`is_complete` tells the two apart.

    ``backend`` records which backend produced the points — the exact
    smoothed L2 criterion or the fast sharp one (see
    :data:`MISS_RATE_BOUND`).  The two answer the same grid with
    different L2 criteria, so mixing their points in one grid would
    silently corrupt cross-point comparisons; :meth:`merge` rejects it.

    ``degraded`` is True when the run that produced these points asked
    for a process pool but had to fall back to the serial path (the
    pool broke or could not start).  The numbers are still exact —
    serial and pooled evaluation are bit-identical — but the run was
    slower than requested, and a result that hides that would mask
    infrastructure problems; the executor also raises a
    ``RuntimeWarning`` and emits a ``pool_degraded`` event when it
    happens.
    """

    name: str
    vlens: tuple[int, ...]
    l2_mbs: tuple[int, ...]
    results: dict[tuple[int, int], NetworkResult]
    backend: str = BACKEND_EXACT
    degraded: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "vlens", tuple(sorted(set(self.vlens))))
        object.__setattr__(self, "l2_mbs", tuple(sorted(set(self.l2_mbs))))
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"unknown sweep backend {self.backend!r} "
                f"(expected one of {BACKENDS})"
            )
        for v, l in self.results:
            if v not in self.vlens or l not in self.l2_mbs:
                raise ConfigError(
                    f"result point ({v} bits, {l} MB) is outside the "
                    f"sweep grid"
                )

    @property
    def points(self) -> tuple[tuple[int, int], ...]:
        """Every (vlen, l2_mb) point of the grid, row-major."""
        return tuple((v, l) for v in self.vlens for l in self.l2_mbs)

    def missing_points(self) -> tuple[tuple[int, int], ...]:
        """Grid points without a result yet (partial/resumed sweeps)."""
        return tuple(p for p in self.points if p not in self.results)

    @property
    def is_complete(self) -> bool:
        return not self.missing_points()

    def at(self, vlen: int, l2_mb: int) -> NetworkResult:
        try:
            return self.results[(vlen, l2_mb)]
        except KeyError:
            raise ConfigError(
                f"({vlen} bits, {l2_mb} MB) was not part of the sweep"
            ) from None

    def seconds(self, vlen: int, l2_mb: int) -> float:
        return self.at(vlen, l2_mb).total.seconds

    def speedup(
        self, vlen: int, l2_mb: int,
        base_vlen: int | None = None, base_l2_mb: int | None = None,
    ) -> float:
        """Speedup of a point relative to a baseline (default: the
        smallest configuration of the sweep)."""
        bv = base_vlen if base_vlen is not None else min(self.vlens)
        bl = base_l2_mb if base_l2_mb is not None else min(self.l2_mbs)
        return self.seconds(bv, bl) / self.seconds(vlen, l2_mb)

    def miss_rate_table(self, l2_mb: int) -> dict[int, float]:
        """L2 miss rate per vector length at one L2 size (Tables 1/2)."""
        return {
            v: self.at(v, l2_mb).total.l2_miss_rate for v in self.vlens
        }

    def runtime_grid(self) -> dict[int, dict[int, float]]:
        """Seconds, keyed [vlen][l2_mb] (the Figure 3/4 series)."""
        return {
            v: {l: self.seconds(v, l) for l in self.l2_mbs}
            for v in self.vlens
        }

    def best(self) -> tuple[int, int]:
        """The fastest configuration of the grid."""
        if not self.results:
            raise ConfigError("sweep has no results yet")
        return min(
            self.results, key=lambda k: self.results[k].total.seconds
        )

    def merge(self, other: "SweepResult") -> "SweepResult":
        """Union of two (possibly partial) sweeps of the same network.

        Points present in both take this sweep's value.  Used by the
        resume path to combine checkpointed points with freshly
        computed ones.
        """
        if other.name != self.name:
            raise ConfigError(
                f"cannot merge sweep {other.name!r} into {self.name!r}"
            )
        if other.backend != self.backend:
            raise ConfigError(
                f"cannot merge a {other.backend!r}-backend sweep into a "
                f"{self.backend!r}-backend sweep: the backends apply "
                f"different L2 criteria, so mixed grids are not comparable"
            )
        results = dict(other.results)
        results.update(self.results)
        return SweepResult(
            name=self.name,
            vlens=self.vlens + other.vlens,
            l2_mbs=self.l2_mbs + other.l2_mbs,
            results=results,
            backend=self.backend,
            degraded=self.degraded or other.degraded,
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (CLI output, checkpoint summaries).

        ``degraded`` is serialized only when set — it flags an
        exceptional run, and its absence keeps summaries written by
        healthy runs (including the golden fixtures) byte-stable.
        """
        d = {
            "name": self.name,
            "backend": self.backend,
            "vlens": list(self.vlens),
            "l2_mbs": list(self.l2_mbs),
            "results": [
                {"vlen": v, "l2_mb": l, "network": r.to_dict()}
                for (v, l), r in sorted(self.results.items())
            ],
        }
        if self.degraded:
            d["degraded"] = True
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SweepResult":
        """Inverse of :meth:`to_dict`.

        Summaries written before backends existed carry no ``backend``
        key; they were produced by the exact per-point simulation.
        """
        return cls(
            name=str(d["name"]),
            vlens=tuple(int(v) for v in d["vlens"]),
            l2_mbs=tuple(int(l) for l in d["l2_mbs"]),
            results={
                (int(e["vlen"]), int(e["l2_mb"])): NetworkResult.from_dict(
                    e["network"]
                )
                for e in d.get("results", [])
            },
            backend=str(d.get("backend", BACKEND_EXACT)),
            degraded=bool(d.get("degraded", False)),
        )


def codesign_sweep(
    name: str,
    layers: list[LayerSpec],
    vlens: Sequence[int] = PAPER_VLENS,
    l2_mbs: Sequence[int] = PAPER_L2_MBS,
    hybrid: bool = True,
    variant: str = SLIDEUP,
    base_config: SystemConfig | None = None,
    workers: int = 1,
    checkpoint_dir: str | Path | None = None,
    on_progress: "Callable[[SweepProgress], None] | None" = None,
    mode: str = BACKEND_EXACT,
    sink: "EventSink | None" = None,
    recorder: "BenchRecorder | None" = None,
) -> SweepResult:
    """Run a network across the co-design grid.

    Args:
        name: report label.
        layers: the network (from :mod:`repro.nets`).
        vlens: vector lengths in bits.
        l2_mbs: L2 capacities in MB.
        hybrid: algorithm policy (see
            :func:`repro.nets.inference.simulate_inference`).
        variant: tuple-multiplication variant.
        base_config: template for all other parameters (frequency,
            L1, latency constants); defaults to the paper's setup.
        workers: units of work evaluated concurrently; ``1`` runs
            serially in-process, more fans out over a process pool
            (results are bit-identical either way).  Both modes
            parallelize over VLEN columns: each column is recorded once
            and evaluated per L2 size.
        checkpoint_dir: directory for per-point JSON checkpoints; an
            interrupted sweep re-run with the same directory resumes
            without recomputing finished points.  Checkpoints record
            the backend that produced them, and a directory never
            mixes backends.
        on_progress: called with a
            :class:`~repro.codesign.executor.SweepProgress` after every
            finished (or checkpoint-restored) point.
        mode: the L2 criterion.  Both backends record each VLEN once
            (:func:`repro.nets.inference.record_inference`) and
            evaluate the recording per L2 size.  ``"exact"`` applies the
            smoothed criterion, bit-identical to a fresh
            :func:`~repro.nets.inference.simulate_inference` at every
            point; ``"fast"`` applies the sharp Mattson criterion to a
            per-layer stack-distance profile (see
            :data:`MISS_RATE_BOUND` for the error model).  For
            ``"validate"`` — both backends plus a delta report — use
            :func:`validate_codesign_sweep`.
        sink: an :class:`~repro.obs.EventSink` receiving the sweep's
            structured event stream (progress ticks, warnings, run
            summary); the CLI's ``--trace`` wires a JSONL sink here.
        recorder: a :class:`~repro.obs.BenchRecorder` collecting each
            point's cycles and wall time for the regression
            observatory (``repro bench record`` / ``compare``).
    """
    if mode == "validate":
        raise ConfigError(
            "mode='validate' returns a SweepValidation, not a "
            "SweepResult; call validate_codesign_sweep instead"
        )
    from repro.codesign.executor import run_sweep

    return run_sweep(
        name, layers, vlens=vlens, l2_mbs=l2_mbs, hybrid=hybrid,
        variant=variant, base_config=base_config, workers=workers,
        checkpoint_dir=checkpoint_dir, on_progress=on_progress, mode=mode,
        sink=sink, recorder=recorder,
    )


@dataclass(frozen=True)
class SweepValidation:
    """Fast-vs-exact differential report of one sweep grid.

    Produced by :func:`validate_codesign_sweep` (the CLI's
    ``--mode validate``): both backends run the same grid, and the
    deltas quantify the fast path's stated associativity/smoothing
    error (see :data:`MISS_RATE_BOUND`).
    """

    exact: SweepResult
    fast: SweepResult

    def __post_init__(self) -> None:
        if self.exact.points != self.fast.points:
            raise ConfigError("validation requires identical grids")

    @property
    def miss_rate_deltas(self) -> dict[tuple[int, int], float]:
        """|fast - exact| total L2 miss rate per grid point."""
        return {
            (v, l): abs(
                self.fast.at(v, l).total.l2_miss_rate
                - self.exact.at(v, l).total.l2_miss_rate
            )
            for v, l in self.exact.points
        }

    @property
    def max_miss_rate_delta(self) -> float:
        deltas = self.miss_rate_deltas
        return max(deltas.values()) if deltas else 0.0

    @property
    def best_agrees(self) -> bool:
        """Whether both backends elect the same (VLEN, L2) optimum."""
        return self.exact.best() == self.fast.best()

    def summary(self) -> str:
        """Per-point delta table plus the headline max-delta line."""
        rows = [
            f"fast-vs-exact validation — {self.exact.name}",
            f"{'point':<18}{'exact miss %':>14}{'fast miss %':>13}"
            f"{'delta':>9}",
        ]
        deltas = self.miss_rate_deltas
        for v, l in self.exact.points:
            e = self.exact.at(v, l).total.l2_miss_rate
            f = self.fast.at(v, l).total.l2_miss_rate
            rows.append(
                f"{f'{v}b/{l}MB':<18}{100 * e:>13.2f}%{100 * f:>12.2f}%"
                f"{100 * deltas[(v, l)]:>8.2f}%"
            )
        agree = "agree" if self.best_agrees else "DISAGREE"
        rows.append(
            f"max miss-rate delta {100 * self.max_miss_rate_delta:.2f}% "
            f"over {len(deltas)} points; best points {agree} "
            f"(exact {self.exact.best()}, fast {self.fast.best()})"
        )
        return "\n".join(rows)


def validate_codesign_sweep(
    name: str,
    layers: list[LayerSpec],
    vlens: Sequence[int] = PAPER_VLENS,
    l2_mbs: Sequence[int] = PAPER_L2_MBS,
    hybrid: bool = True,
    variant: str = SLIDEUP,
    base_config: SystemConfig | None = None,
    workers: int = 1,
    checkpoint_dir: str | Path | None = None,
    on_progress: "Callable[[SweepProgress], None] | None" = None,
    sink: "EventSink | None" = None,
) -> SweepValidation:
    """Run the grid through both backends and report their deltas.

    Checkpoints (when enabled) go to ``<dir>/exact`` and ``<dir>/fast``
    so the two runs can never share point files.  Both runs emit into
    the same ``sink`` (their ``sweep_start`` events carry the backend).
    """
    def subdir(tag: str) -> Path | None:
        return Path(checkpoint_dir) / tag if checkpoint_dir else None

    exact = codesign_sweep(
        name, layers, vlens=vlens, l2_mbs=l2_mbs, hybrid=hybrid,
        variant=variant, base_config=base_config, workers=workers,
        checkpoint_dir=subdir(BACKEND_EXACT), on_progress=on_progress,
        mode=BACKEND_EXACT, sink=sink,
    )
    fast = codesign_sweep(
        name, layers, vlens=vlens, l2_mbs=l2_mbs, hybrid=hybrid,
        variant=variant, base_config=base_config, workers=workers,
        checkpoint_dir=subdir(BACKEND_FAST), on_progress=on_progress,
        mode=BACKEND_FAST, sink=sink,
    )
    return SweepValidation(exact=exact, fast=fast)
