"""The regression observatory: BenchRecorder semantics, the
BENCH_<rev>.json store, the comparison policy (exact cycles, noise-
tolerant wall time), the executor's recording hook — and the tier-1
acceptance gates: `repro bench record` then `repro bench compare` on a
two-point sweep exits 0, and a +1% cycle perturbation of the stored
baseline makes compare exit non-zero naming the offending bench."""

import json

import pytest

from repro.cli import main
from repro.codesign import codesign_sweep
from repro.errors import ObsError
from repro.nets import vgg16_layers
from repro.obs import (
    BaselineStore,
    BenchRecorder,
    baseline_payload,
    bench_key,
    compare_payloads,
    render_comparison,
)
from repro.obs.baseline import wall_tolerance

pytestmark = pytest.mark.bench


def _payload(rev="r1", **benches):
    rec = BenchRecorder()
    for name, (cycles, walls) in benches.items():
        for w in walls:
            rec.add(name, cycles, wall_seconds=w)
        if not walls:
            rec.add(name, cycles)
    return baseline_payload(rev, rec, config={"network": "t"})


class TestRecorder:
    def test_wall_statistics_accumulate(self):
        rec = BenchRecorder()
        for w in (1.0, 2.0, 3.0):
            rec.add("b", 100.0, wall_seconds=w)
        benches = rec.benches()
        assert benches["b"]["cycles"] == 100.0
        assert benches["b"]["wall_mean"] == 2.0
        assert benches["b"]["wall_std"] == 1.0
        assert benches["b"]["runs"] == 3

    def test_nondeterministic_cycles_rejected(self):
        rec = BenchRecorder()
        rec.add("b", 100.0)
        with pytest.raises(ObsError, match="nondeterministic"):
            rec.add("b", 101.0)

    def test_empty_baseline_refused(self):
        with pytest.raises(ObsError, match="empty baseline"):
            baseline_payload("r", BenchRecorder(), config={})

    def test_bench_key_format(self):
        assert bench_key("vgg16", 512, 1) == "vgg16/512b/1MB"
        assert bench_key("yolov3-20L", 2048, 0.5) == "yolov3-20L/2048b/0.5MB"


class TestStore:
    def test_save_load_resolve(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.save(_payload("aaa", x=(1.0, [0.1])))
        store.save(_payload("bbb", x=(2.0, [0.1])))
        assert store.revs() == ["aaa", "bbb"]
        assert store.load("aaa")["benches"]["x"]["cycles"] == 1.0
        # resolve() with no rev picks the most recently recorded.
        assert store.resolve()["rev"] == "bbb"
        assert store.resolve("aaa")["rev"] == "aaa"

    def test_resolve_accepts_an_unambiguous_prefix(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.save(_payload("abc123", x=(1.0, [])))
        store.save(_payload("abd456", x=(2.0, [])))
        assert store.resolve("abc")["rev"] == "abc123"
        assert store.resolve("abd456")["rev"] == "abd456"
        with pytest.raises(ObsError, match="ambiguous"):
            store.resolve("ab")
        with pytest.raises(ObsError, match="known: "):
            store.resolve("zzz")

    def test_unknown_rev_names_known_ones(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.save(_payload("aaa", x=(1.0, [])))
        with pytest.raises(ObsError, match="known: aaa"):
            store.load("zzz")

    def test_empty_store_refuses_resolve(self, tmp_path):
        with pytest.raises(ObsError, match="no baselines recorded"):
            BaselineStore(tmp_path / "void").resolve()

    def test_malformed_rev_rejected(self, tmp_path):
        with pytest.raises(ObsError, match="malformed"):
            BaselineStore(tmp_path).path_for("../escape")

    def test_schema_mismatch_rejected(self, tmp_path):
        store = BaselineStore(tmp_path)
        path = store.save(_payload("aaa", x=(1.0, [])))
        doc = json.loads(path.read_text())
        doc["schema"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ObsError, match="schema 99"):
            store.load("aaa")


class TestComparePolicy:
    def test_identical_payloads_ok(self):
        cmp = compare_payloads(_payload("a", x=(100.0, [1.0, 1.1])),
                               _payload("b", x=(100.0, [1.05])))
        assert cmp.ok and cmp.compared == 1

    def test_one_percent_cycle_change_is_a_regression(self):
        """Acceptance gate: cycles are exact — +1% fails, and the
        report names the offending bench."""
        cmp = compare_payloads(_payload("a", x=(100.0, [1.0])),
                               _payload("b", x=(101.0, [1.0])))
        assert not cmp.ok
        (reg,) = cmp.regressions
        assert reg.bench == "x" and reg.kind == "cycles"
        assert "+1.0000%" in reg.detail
        text = render_comparison(cmp)
        assert "REGRESSION [cycles] x" in text and "FAILED" in text

    def test_cycle_improvements_also_fail(self):
        # A faster simulation is still a modeling change; the baseline
        # must be re-recorded, not silently drifted past.
        cmp = compare_payloads(_payload("a", x=(100.0, [])),
                               _payload("b", x=(99.0, [])))
        assert not cmp.ok and cmp.regressions[0].kind == "cycles"

    def test_missing_bench_is_a_regression(self):
        cmp = compare_payloads(_payload("a", x=(1.0, []), y=(2.0, [])),
                               _payload("b", x=(1.0, [])))
        assert not cmp.ok
        assert cmp.regressions[0].kind == "missing"
        assert cmp.regressions[0].bench == "y"

    def test_added_bench_reported_but_ok(self):
        cmp = compare_payloads(_payload("a", x=(1.0, [])),
                               _payload("b", x=(1.0, []), z=(3.0, [])))
        assert cmp.ok and cmp.added == ("z",)

    def test_wall_noise_within_tolerance_ok(self):
        cmp = compare_payloads(_payload("a", x=(1.0, [1.0, 1.0])),
                               _payload("b", x=(1.0, [1.4])))
        assert cmp.ok  # 40% over, under the 50% relative floor

    def test_wall_blowup_is_a_regression(self):
        cmp = compare_payloads(_payload("a", x=(1.0, [1.0, 1.0])),
                               _payload("b", x=(1.0, [5.0])))
        assert not cmp.ok and cmp.regressions[0].kind == "wall"

    def test_unrecorded_wall_noted_not_failed(self):
        cmp = compare_payloads(_payload("a", x=(1.0, [])),
                               _payload("b", x=(1.0, [])))
        assert cmp.ok and any("not compared" in n for n in cmp.notes)

    def test_cycles_only_skips_walls_with_a_note(self):
        cmp = compare_payloads(_payload("a", x=(1.0, [1.0, 1.0])),
                               _payload("b", x=(1.0, [50.0])),
                               walls=False)
        assert cmp.ok  # the 50x wall blowup is deliberately ignored
        assert any("cycles only" in n for n in cmp.notes)

    def test_every_compared_wall_is_reported(self):
        """Speed-ups and slow-downs within tolerance both print their
        baseline -> current wall; the pass/fail policy is unchanged."""
        base = _payload("a", fast=(1.0, [2.0, 2.0]), slow=(2.0, [1.0, 1.0]),
                        untimed=(3.0, []))
        cur = _payload("b", fast=(1.0, [0.5]), slow=(2.0, [1.25]),
                       untimed=(3.0, []))
        for walls in (True, False):
            cmp = compare_payloads(base, cur, walls=walls)
            assert cmp.ok
            assert [(w.bench, w.base, w.current) for w in cmp.walls] == [
                ("fast", 2.0, 0.5), ("slow", 1.0, 1.25)]
            assert [w.change for w in cmp.walls] == [-0.75, 0.25]
            text = render_comparison(cmp)
            assert "wall fast: 2.0000s -> 0.5000s (-75.0%)" in text
            assert "wall slow: 1.0000s -> 1.2500s (+25.0%)" in text
            assert "wall untimed" not in text
            assert text.endswith("OK")
            assert cmp.to_dict()["walls"] == [
                {"bench": "fast", "base": 2.0, "current": 0.5, "change": -0.75},
                {"bench": "slow", "base": 1.0, "current": 1.25, "change": 0.25},
            ]

    def test_wall_regression_still_reports_its_delta(self):
        cmp = compare_payloads(_payload("a", x=(1.0, [1.0, 1.0])),
                               _payload("b", x=(1.0, [5.0])))
        assert not cmp.ok
        assert [(w.base, w.current) for w in cmp.walls] == [(1.0, 5.0)]
        assert "wall x: 1.0000s -> 5.0000s (+400.0%)" in render_comparison(cmp)

    def test_wall_tolerance_floors(self):
        # Absolute floor dominates tiny benches; sigma term dominates
        # noisy ones; relative floor dominates stable long ones.
        assert wall_tolerance(0.01, 0.0) == 0.1
        assert wall_tolerance(1.0, 10.0) == 30.0
        assert wall_tolerance(10.0, 0.0) == 5.0


class TestExecutorHook:
    VLENS, L2S = (512, 1024), (1,)

    def _layers(self):
        return vgg16_layers()[:2]

    def test_sweep_points_recorded(self):
        rec = BenchRecorder()
        sweep = codesign_sweep("vgg16", self._layers(),
                               vlens=self.VLENS, l2_mbs=self.L2S,
                               recorder=rec)
        benches = rec.benches()
        assert set(benches) == {
            bench_key("vgg16", v, l) for v in self.VLENS for l in self.L2S}
        for v in self.VLENS:
            b = benches[bench_key("vgg16", v, 1)]
            assert b["cycles"] == sweep.at(v, 1).total.cycles
            assert b["runs"] == 1 and b["wall_mean"] is not None

    def test_restored_points_record_cycles_without_wall(self, tmp_path):
        kwargs = dict(vlens=(512,), l2_mbs=(1,),
                      checkpoint_dir=tmp_path / "ckpt")
        codesign_sweep("vgg16", self._layers(), **kwargs)
        rec = BenchRecorder()
        sweep = codesign_sweep("vgg16", self._layers(), recorder=rec,
                               **kwargs)
        b = rec.benches()[bench_key("vgg16", 512, 1)]
        # A checkpoint restore measures the disk, not the sweep: the
        # exact cycle count contributes, a wall sample does not.
        assert b["cycles"] == sweep.at(512, 1).total.cycles
        assert b["runs"] == 0 and b["wall_mean"] is None


class TestCliSmoke:
    """Tier-1 acceptance: record then compare on a two-point sweep.

    Both compares run ``--cycles-only``: under a loaded test machine
    (the full suite, parallel CI) wall time can legitimately blow past
    any tolerance, and these gates pin the *cycle* policy."""

    ARGS = ["vgg16", "--layers", "2", "--vlens", "512,1024",
            "--l2-sizes", "1", "--repeat", "1"]

    def test_record_then_compare_exits_zero(self, tmp_path, capsys):
        store = str(tmp_path / "baselines")
        assert main(["bench", "record", *self.ARGS, "--dir", store,
                     "--rev", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "recorded baseline smoke: 2 bench(es)" in out
        assert main(["bench", "compare", "--dir", store,
                     "--cycles-only"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_compare_fails_on_perturbed_baseline(self, tmp_path, capsys):
        store = tmp_path / "baselines"
        assert main(["bench", "record", *self.ARGS, "--dir", str(store),
                     "--rev", "smoke"]) == 0
        path = store / "BENCH_smoke.json"
        doc = json.loads(path.read_text())
        key = bench_key("vgg16", 512, 1)
        doc["benches"][key]["cycles"] *= 1.01
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["bench", "compare", "--dir", str(store),
                     "--against", "smoke", "--cycles-only",
                     "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        (reg,) = report["regressions"]
        assert reg["bench"] == key and reg["kind"] == "cycles"
