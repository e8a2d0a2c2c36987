"""Tuner regressions: determinism, the never-worse guarantee, and
surrogate fidelity.

``repro tune`` is only trustworthy if (a) a report is a pure function
of (net, config, seed) — no hidden global state, (b) its winner never
loses to the shipped kernels (the default schedule is always in the
exactly-simulated set, and its generated trace *is* the shipped
im2col+GEMM driver's trace), and (c) the cheap surrogate ranking is good
enough that the exact re-rank of the top-k finds the true optimum —
checked here by exhaustively exact-simulating a whole schedule space
and asserting the surrogate's leaders contain the exact best.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.codesign.tuner import proxy_layer, tune_layer, tune_network
from repro.conv.layer import ConvLayerSpec
from repro.kernels import im2col_gemm_conv2d_sim
from repro.rvv import Memory, RvvMachine, Tracer
from repro.sim.system import Simulator, SystemConfig

pytestmark = pytest.mark.dsl

#: The 2-layer synthetic net: one 3x3 same-pad conv, one 1x1 conv.
NET = [
    ConvLayerSpec(name="t0", c_in=3, h_in=8, w_in=8, c_out=6,
                  ksize=3, stride=1, pad=1),
    ConvLayerSpec(name="t1", c_in=6, h_in=8, w_in=8, c_out=8,
                  ksize=1, stride=1, pad=0),
]
CONFIG = SystemConfig(vlen_bits=512)


def _tune(seed=11):
    return tune_network("synthetic", NET, CONFIG, seed=seed, budget=12,
                        top_k=3)


def test_report_is_deterministic_given_the_seed():
    assert _tune().to_dict() == _tune().to_dict()


def test_different_seed_samples_a_different_space():
    a = [c["label"] for t in _tune(seed=11).to_dict()["layers"]
         for c in t["candidates"]]
    b = [c["label"] for t in _tune(seed=12).to_dict()["layers"]
         for c in t["candidates"]]
    assert a != b


def test_top1_never_loses_to_the_handwritten_baseline():
    report = _tune()
    assert len(report.layers) == 2
    for layer, tuning in zip(NET, report.layers):
        best = tuning.best
        assert best.validated is True
        assert best.exact_cycles is not None
        assert best.exact_cycles <= tuning.baseline_cycles
        # The baseline is what the shipped im2col+GEMM driver costs on
        # the same (proxy) problem.
        proxy = proxy_layer(layer, 1024, 64)
        machine = RvvMachine(CONFIG.vlen_bits, memory=Memory(1 << 28),
                             tracer=Tracer(capture=True))
        im2col_gemm_conv2d_sim(
            machine,
            np.zeros((proxy.c_in, proxy.h_in, proxy.w_in), np.float32),
            np.zeros((proxy.c_out, proxy.c_in, proxy.ksize, proxy.ksize),
                     np.float32),
            stride=proxy.stride, pad=proxy.pad)
        shipped = Simulator(CONFIG).run_trace(machine.tracer).cycles
        assert tuning.baseline_cycles == shipped


@pytest.mark.parametrize("layer", NET, ids=[lay.name for lay in NET])
def test_surrogate_topk_contains_the_exact_best(layer):
    """Exhaustively exact-simulate the space; the true optimum must be
    reachable through the surrogate's top-k."""
    tuning = tune_layer(layer, CONFIG, seed=0, budget=None, top_k=3,
                        exhaustive=True)
    assert len(tuning.evaluated) == len(tuning.candidates)
    exact_best = tuning.best.exact_cycles
    ranked = sorted(tuning.candidates,
                    key=lambda c: c.surrogate_cycles)[:tuning.top_k]
    assert min(c.exact_cycles for c in ranked) == exact_best


def test_proxy_layer_caps_pixels_and_channels():
    vgg_mid = ConvLayerSpec(name="mid", c_in=256, h_in=56, w_in=56,
                            c_out=256, ksize=3, stride=1, pad=1)
    proxy = proxy_layer(vgg_mid, max_pixels=256, max_channels=32)
    assert proxy.c_in == 32 and proxy.c_out == 32
    assert proxy.h_out * proxy.w_out <= 256
    assert (proxy.ksize, proxy.stride, proxy.pad) == (3, 1, 1)
    # Already-small layers pass through unchanged.
    assert proxy_layer(NET[0], 1024, 64) == NET[0]


def test_cli_tune_writes_report_and_manifest(tmp_path):
    out = tmp_path / "tune"
    rc = main(["tune", "vgg16", "--layers", "1", "--vlen", "512",
               "--max-channels", "8", "--max-pixels", "64",
               "--budget", "6", "--top-k", "2", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "tuning_report.json").read_text())
    assert report["net"] == "vgg16"
    assert len(report["layers"]) == 1
    best = report["layers"][0]["best"]
    assert best["validated"] is True
    assert best["exact_cycles"] <= report["layers"][0]["baseline_cycles"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "tune"
    assert manifest["network"] == "vgg16"
