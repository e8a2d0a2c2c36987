"""Differential campaign: the stack-distance fast backend vs the exact
per-point simulation.

Both backends evaluate the same per-VLEN recording, so they must agree
exactly on everything that does not depend on the L2 criterion
(instruction counts, issue cycles, L1 statistics, L2 accesses) and stay
within the stated associativity error bound
(:data:`repro.codesign.MISS_RATE_BOUND`) on what does (L2 miss rates —
the exact backend smooths the hit/miss transition to model
set-associative conflicts; the fast one applies the sharp Mattson
criterion).  The cross-backend tests are marked ``differential``:
``pytest -m differential`` runs just this campaign.
"""

import pytest

from repro.codesign import (
    BACKEND_EXACT,
    BACKEND_FAST,
    MISS_RATE_BOUND,
    SweepValidation,
    codesign_sweep,
    validate_codesign_sweep,
)
from repro.conv import ConvLayerSpec
from repro.errors import ConfigError
from repro.nets.inference import record_inference, simulate_inference
from repro.nets.layers import MaxPoolSpec, ShortcutSpec
from repro.sim import SystemConfig

#: A synthetic net small enough to simulate in milliseconds but with
#: working sets straddling the swept L2 capacities (the second conv's
#: column matrix is several MB), so the backends genuinely disagree at
#: the margin.  All three layer kinds are represented.
SYNTH_LAYERS = [
    ConvLayerSpec(name="c1", c_in=8, h_in=64, w_in=64, c_out=32,
                  ksize=3, stride=1, pad=1),
    ShortcutSpec(name="s1", c=32, h=64, w=64),
    ConvLayerSpec(name="c2", c_in=32, h_in=64, w_in=64, c_out=16,
                  ksize=3, stride=1, pad=1),
    MaxPoolSpec(name="p1", c=16, h=64, w=64),
    ConvLayerSpec(name="c3", c_in=16, h_in=32, w_in=32, c_out=16,
                  ksize=1, stride=1, pad=0),
]
VLENS = (512, 2048)
L2_MBS = (1, 4, 16)


@pytest.fixture(scope="module")
def exact_sweep():
    return codesign_sweep("synth", SYNTH_LAYERS, vlens=VLENS,
                          l2_mbs=L2_MBS, mode=BACKEND_EXACT)


@pytest.fixture(scope="module")
def fast_sweep():
    return codesign_sweep("synth", SYNTH_LAYERS, vlens=VLENS,
                          l2_mbs=L2_MBS, mode=BACKEND_FAST)


@pytest.mark.differential
class TestBackendDifferential:
    def test_l2_independent_stats_are_identical(self, exact_sweep, fast_sweep):
        """Everything upstream of the L2 criterion comes from the one
        shared recording, so it matches exactly — per layer and in
        total: instruction/element/flop counts, issue cycles, the L1
        counters and the L2 access count."""
        for v in VLENS:
            for l2 in L2_MBS:
                ex_pt = exact_sweep.at(v, l2)
                fa_pt = fast_sweep.at(v, l2)
                pairs = [(ex_pt.total, fa_pt.total),
                         *zip(ex_pt.per_layer, fa_pt.per_layer)]
                assert len(pairs) == len(SYNTH_LAYERS) + 1
                for ex, fa in pairs:
                    assert fa.label == ex.label
                    assert fa.instrs == ex.instrs
                    assert fa.elems == ex.elems
                    assert fa.flops == ex.flops
                    assert fa.issue_cycles == ex.issue_cycles
                    assert fa.hierarchy.l1 == ex.hierarchy.l1
                    assert (fa.hierarchy.l2.accesses
                            == ex.hierarchy.l2.accesses)

    def test_l2_miss_rate_within_stated_bound(self, exact_sweep, fast_sweep):
        """The associativity/smoothing error bound the fast backend
        states for itself holds at every grid point."""
        for v in VLENS:
            for l2 in L2_MBS:
                ex = exact_sweep.at(v, l2).total.l2_miss_rate
                fa = fast_sweep.at(v, l2).total.l2_miss_rate
                assert abs(fa - ex) <= MISS_RATE_BOUND, (v, l2, ex, fa)

    def test_per_layer_deltas_decompose_within_bound(
            self, exact_sweep, fast_sweep):
        """A single layer whose traffic sits at one distance near the
        capacity can see the whole smoothing tail, so its own miss
        *rate* is unbounded — but weighted by its share of the point's
        L2 traffic, the layer deltas must still sum under the stated
        point bound (this is the decomposition that makes the total
        bound hold)."""
        for v in VLENS:
            for l2 in L2_MBS:
                ex_pt = exact_sweep.at(v, l2)
                fa_pt = fast_sweep.at(v, l2)
                total_acc = ex_pt.total.hierarchy.l2.accesses
                assert len(ex_pt.per_layer) == len(fa_pt.per_layer)
                summed = 0.0
                for ex, fa in zip(ex_pt.per_layer, fa_pt.per_layer):
                    assert ex.label == fa.label
                    summed += abs(fa.hierarchy.l2.misses
                                  - ex.hierarchy.l2.misses)
                assert summed / total_acc <= MISS_RATE_BOUND, (v, l2)

    def test_fast_misses_monotone_in_l2(self, fast_sweep):
        """The Mattson criterion guarantees larger L2s never miss more."""
        for v in VLENS:
            misses = [fast_sweep.at(v, l2).total.hierarchy.l2.misses
                      for l2 in L2_MBS]
            assert all(a >= b for a, b in zip(misses, misses[1:]))

    def test_validate_mode_reports_the_measured_deltas(self, tmp_path):
        validation = validate_codesign_sweep(
            "synth", SYNTH_LAYERS[:2], vlens=(512,), l2_mbs=(1, 4),
            checkpoint_dir=tmp_path / "val")
        assert validation.exact.backend == BACKEND_EXACT
        assert validation.fast.backend == BACKEND_FAST
        assert set(validation.miss_rate_deltas) == {(512, 1), (512, 4)}
        assert 0 <= validation.max_miss_rate_delta <= MISS_RATE_BOUND
        summary = validation.summary()
        assert "max miss-rate delta" in summary
        assert isinstance(validation.best_agrees, bool)


class TestNetworkRecording:
    """The one per-VLEN recording both backends evaluate."""

    def test_recording_mirrors_simulate_inference_layer_labels(self):
        cfg = SystemConfig(vlen_bits=512, l2_mb=1)
        rec = record_inference("synth", SYNTH_LAYERS, cfg)
        result = simulate_inference("synth", SYNTH_LAYERS, cfg)
        assert [r.template.label for r in rec.layers] == [
            s.label for s in result.per_layer]
        assert rec.config.vlen_bits == 512

    def test_one_recording_answers_both_backends(
            self, exact_sweep, fast_sweep):
        """One recording, evaluated under each backend tag, is the
        sweep's answer at every capacity of that VLEN column."""
        for v in VLENS:
            rec = record_inference("synth", SYNTH_LAYERS,
                                   SystemConfig(vlen_bits=v, l2_mb=1))
            for l2 in L2_MBS:
                ex = rec.evaluate(l2, BACKEND_EXACT)
                fa = rec.evaluate(l2, BACKEND_FAST)
                assert ex == exact_sweep.at(v, l2)
                assert fa == fast_sweep.at(v, l2)
                assert 0 <= fa.total.l2_miss_rate <= 1

    def test_evaluate_rejects_bad_capacity(self):
        cfg = SystemConfig(vlen_bits=512, l2_mb=1)
        rec = record_inference("synth", SYNTH_LAYERS[:1], cfg)
        for mode in (BACKEND_EXACT, BACKEND_FAST):
            with pytest.raises(ConfigError):
                rec.evaluate(0, mode)

    def test_evaluate_rejects_unknown_mode(self):
        rec = record_inference("synth", SYNTH_LAYERS[:1], SystemConfig())
        with pytest.raises(ConfigError):
            rec.evaluate(1, "approximate")

    def test_empty_network_rejected(self):
        with pytest.raises(ConfigError):
            record_inference("empty", [], SystemConfig())


class TestSweepModes:
    def test_fast_parallel_matches_fast_serial(self):
        serial = codesign_sweep("synth", SYNTH_LAYERS[:3], vlens=VLENS,
                                l2_mbs=(1, 4), mode=BACKEND_FAST)
        parallel = codesign_sweep("synth", SYNTH_LAYERS[:3], vlens=VLENS,
                                  l2_mbs=(1, 4), mode=BACKEND_FAST,
                                  workers=2)
        assert parallel == serial
        assert parallel.backend == BACKEND_FAST

    def test_validate_is_not_a_sweep_mode(self):
        with pytest.raises(ConfigError):
            codesign_sweep("synth", SYNTH_LAYERS[:1], vlens=(512,),
                           l2_mbs=(1,), mode="validate")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            codesign_sweep("synth", SYNTH_LAYERS[:1], vlens=(512,),
                           l2_mbs=(1,), mode="approximate")

    def test_validation_requires_matching_grids(self, exact_sweep):
        other = codesign_sweep("synth", SYNTH_LAYERS[:1], vlens=(512,),
                               l2_mbs=(1,), mode=BACKEND_FAST)
        with pytest.raises(ConfigError):
            SweepValidation(exact=exact_sweep, fast=other)


def test_synthetic_net_straddles_the_l2_axis(fast_sweep):
    """The campaign is only meaningful if the net's working set actually
    spans the swept capacities: the smallest L2 must miss strictly more
    than the largest one at some VLEN."""
    small = max(fast_sweep.at(v, L2_MBS[0]).total.hierarchy.l2.misses
                for v in VLENS)
    large = max(fast_sweep.at(v, L2_MBS[-1]).total.hierarchy.l2.misses
                for v in VLENS)
    assert small > large
