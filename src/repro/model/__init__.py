"""Analytical instruction-stream and cache-traffic models.

Scales the validated kernels of :mod:`repro.kernels` to full network
layers: exact closed-form instruction counts (diffed against functional
traces in the test suite) plus stack-distance traffic classes evaluated
in O(1) per configuration (see :mod:`repro.model.traffic`).
"""

from repro.model.direct_model import direct1x1_model
from repro.model.gemm_model import gemm_model, im2col_model_for
from repro.model.layer_model import (
    NetworkResult,
    layer_phases,
    simulate_layer,
)
from repro.model.traffic import (
    COLD,
    PhaseModel,
    evaluate_hierarchy,
    stats_from_model,
)
from repro.model.winograd_model import (
    filter_transform_model,
    input_transform_model,
    output_transform_model,
    tuple_mult_model,
    winograd_layer_model,
)

__all__ = [
    "PhaseModel",
    "COLD",
    "evaluate_hierarchy",
    "stats_from_model",
    "winograd_layer_model",
    "input_transform_model",
    "filter_transform_model",
    "tuple_mult_model",
    "output_transform_model",
    "gemm_model",
    "im2col_model_for",
    "direct1x1_model",
    "layer_phases",
    "simulate_layer",
    "NetworkResult",
]
