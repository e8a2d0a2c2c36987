"""The co-design study: vector-length x L2-size sweeps and reporting.

Every (VLEN x L2) grid is answered from one recording per VLEN
(:func:`repro.nets.inference.record_inference`), replayed across the
whole L2 axis in one call under one of two L2 criteria: the exact
backend's smoothed criterion, bit-identical to per-point simulation,
or the fast backend's sharp Mattson threshold over a stack-distance
profile.
``codesign_sweep(mode=...)`` selects the backend;
:func:`validate_codesign_sweep` runs both and reports per-point
miss-rate deltas.
"""

from repro.codesign.executor import (
    SweepProgress,
    evaluate_column,
    run_sweep,
)
from repro.codesign.report import (
    PAPER_HEADLINES,
    PAPER_TABLE1_YOLO,
    PAPER_TABLE2_VGG,
    Comparison,
    backend_timing_report,
    comparison_table,
    miss_rate_report,
    runtime_figure,
)
from repro.codesign.sweep import (
    BACKEND_EXACT,
    BACKEND_FAST,
    BACKENDS,
    MISS_RATE_BOUND,
    MODES,
    PAPER_L2_MBS,
    PAPER_VLENS,
    SweepResult,
    SweepValidation,
    codesign_sweep,
    validate_codesign_sweep,
)
from repro.codesign.tuner import (
    LayerTuning,
    TunedCandidate,
    TuningReport,
    proxy_layer,
    tune_layer,
    tune_network,
)

__all__ = [
    "codesign_sweep",
    "validate_codesign_sweep",
    "run_sweep",
    "evaluate_column",
    "MISS_RATE_BOUND",
    "SweepProgress",
    "SweepResult",
    "SweepValidation",
    "BACKEND_EXACT",
    "BACKEND_FAST",
    "BACKENDS",
    "MODES",
    "PAPER_VLENS",
    "PAPER_L2_MBS",
    "Comparison",
    "comparison_table",
    "miss_rate_report",
    "runtime_figure",
    "backend_timing_report",
    "PAPER_TABLE1_YOLO",
    "PAPER_TABLE2_VGG",
    "PAPER_HEADLINES",
    "TunedCandidate",
    "LayerTuning",
    "TuningReport",
    "proxy_layer",
    "tune_layer",
    "tune_network",
]
