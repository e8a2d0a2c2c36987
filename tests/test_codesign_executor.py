"""Tests for the parallel sweep executor: serial/parallel equivalence,
checkpoint/resume, progress reporting, and partial-grid merging."""

import json

import pytest

from repro.codesign import SweepResult, codesign_sweep, executor
from repro.codesign.executor import (
    CHECKPOINT_VERSION,
    MANIFEST_NAME,
    SweepProgress,
    _point_path,
    evaluate_column,
)
from repro.errors import ConfigError
from repro.model.layer_model import NetworkResult
from repro.nets import vgg16_layers
from repro.obs import MemorySink
from repro.sim import SimStats

VLENS = (1024, 2048)
L2_MBS = (1, 16)


@pytest.fixture(scope="module")
def layers():
    return vgg16_layers()[:2]


@pytest.fixture(scope="module")
def serial_sweep(layers):
    """The serial reference grid every executor test compares against."""
    return codesign_sweep("vgg-head", layers, vlens=VLENS, l2_mbs=L2_MBS)


class TestParallelExecution:
    def test_parallel_matches_serial_bit_identical(self, layers, serial_sweep):
        """Tier-1 smoke: a 2x2 sweep with workers=2 must reproduce the
        serial grid bit for bit (results travel back via pickle)."""
        events = []
        parallel = codesign_sweep(
            "vgg-head", layers, vlens=VLENS, l2_mbs=L2_MBS,
            workers=2, on_progress=events.append,
        )
        assert parallel == serial_sweep
        assert parallel.runtime_grid() == serial_sweep.runtime_grid()
        # Progress: one tick per point, done counts to completion.
        assert len(events) == 4
        assert sorted(e.done for e in events) == [1, 2, 3, 4]
        assert all(e.total == 4 for e in events)
        assert all(not e.from_checkpoint for e in events)
        assert all(e.point_seconds > 0 for e in events)
        assert all(e.eta_seconds >= 0 for e in events)
        assert "[4/4]" in [e for e in events if e.done == 4][0].describe()

    def test_workers_must_be_positive(self, layers):
        with pytest.raises(ConfigError):
            codesign_sweep("x", layers, vlens=(1024,), l2_mbs=(1,), workers=0)

    def test_empty_grid_rejected(self, layers):
        with pytest.raises(ConfigError):
            codesign_sweep("x", layers, vlens=(), l2_mbs=(1,), workers=2)


#: Grid axes no entry point may coerce: fractional, ``bool``, string,
#: non-positive and empty.
BAD_AXES = [(1.5,), (512.7,), (True,), (1, True), ("16",), (0,), (-4,), ()]


class TestAxisValidation:
    """The executor's entry points reject a malformed axis, naming it,
    before any recording runs; nothing is truncated to an integer."""

    @pytest.fixture(autouse=True)
    def no_recording(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("recorded before the axis was checked")

        monkeypatch.setattr(executor, "record_inference", refuse)

    @pytest.mark.parametrize("bad", BAD_AXES)
    def test_evaluate_column_rejects(self, layers, bad):
        with pytest.raises(ConfigError, match="l2_mbs"):
            evaluate_column("x", layers, 512, bad)
        if bad:
            with pytest.raises(ConfigError, match="vlen"):
                evaluate_column("x", layers, bad[-1], (1,))

    @pytest.mark.parametrize("field", ["vlens", "l2_mbs"])
    @pytest.mark.parametrize("bad", BAD_AXES)
    def test_codesign_sweep_rejects(self, layers, field, bad):
        axes = {"vlens": (512,), "l2_mbs": (1,), field: bad}
        with pytest.raises(ConfigError, match=field):
            codesign_sweep("x", layers, **axes)


class TestCheckpointResume:
    def test_resume_skips_finished_points(self, tmp_path, layers, serial_sweep):
        """Kill-and-rerun: points checkpointed by a first (partial) run
        are restored, not recomputed, and the merged grid is identical
        to an uninterrupted serial sweep."""
        ckpt = tmp_path / "run"
        codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                       l2_mbs=L2_MBS, checkpoint_dir=ckpt)
        assert (ckpt / MANIFEST_NAME).exists()
        events = []
        resumed = codesign_sweep(
            "vgg-head", layers, vlens=VLENS, l2_mbs=L2_MBS,
            checkpoint_dir=ckpt, workers=2, on_progress=events.append,
        )
        assert resumed == serial_sweep
        restored = {(e.vlen, e.l2_mb) for e in events if e.from_checkpoint}
        assert restored == {(VLENS[0], l) for l in L2_MBS}
        computed = {(e.vlen, e.l2_mb) for e in events if not e.from_checkpoint}
        assert computed == {(VLENS[1], l) for l in L2_MBS}
        # A third run restores everything.
        events.clear()
        again = codesign_sweep(
            "vgg-head", layers, vlens=VLENS, l2_mbs=L2_MBS,
            checkpoint_dir=ckpt, on_progress=events.append,
        )
        assert again == serial_sweep
        assert all(e.from_checkpoint for e in events)

    def test_torn_checkpoint_recomputed(self, tmp_path, layers, serial_sweep):
        ckpt = tmp_path / "run"
        codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                       l2_mbs=(L2_MBS[0],), checkpoint_dir=ckpt)
        point = _point_path(ckpt, VLENS[0], L2_MBS[0])
        point.write_text('{"version": 1, "truncated')  # simulated kill
        with pytest.warns(RuntimeWarning, match="checkpoint_corrupt"):
            sweep = codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                                   l2_mbs=(L2_MBS[0],), checkpoint_dir=ckpt)
        assert sweep.at(*serial_sweep.points[0]) == serial_sweep.results[
            (VLENS[0], L2_MBS[0])
        ]
        assert json.loads(point.read_text())["version"] == CHECKPOINT_VERSION

    def test_manifest_mismatch_rejected(self, tmp_path, layers):
        ckpt = tmp_path / "run"
        codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                       l2_mbs=(L2_MBS[0],), checkpoint_dir=ckpt)
        with pytest.raises(ConfigError):
            codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                           l2_mbs=(L2_MBS[0],), checkpoint_dir=ckpt,
                           hybrid=False)

    def test_network_result_json_roundtrip(self, serial_sweep):
        original = serial_sweep.results[(VLENS[0], L2_MBS[0])]
        restored = NetworkResult.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert restored == original
        assert restored.total.cycles == original.total.cycles
        assert restored.total.l2_miss_rate == original.total.l2_miss_rate

    def test_sweep_result_json_roundtrip(self, serial_sweep):
        restored = SweepResult.from_dict(
            json.loads(json.dumps(serial_sweep.to_dict()))
        )
        assert restored == serial_sweep


def _fake_result(name: str, cycles: float) -> NetworkResult:
    stats = SimStats(freq_ghz=2.0, issue_cycles=cycles, label=name)
    return NetworkResult(name=name, per_layer=(), total=stats)


class TestSweepResultGrid:
    def _sweep(self, entries, vlens, l2_mbs, name="net"):
        return SweepResult(
            name=name, vlens=vlens, l2_mbs=l2_mbs,
            results={
                k: _fake_result(name, cyc) for k, cyc in entries.items()
            },
        )

    def test_grids_normalized_sorted_unique(self):
        s = self._sweep({}, vlens=(2048, 512, 2048), l2_mbs=(64, 1))
        assert s.vlens == (512, 2048)
        assert s.l2_mbs == (1, 64)

    def test_speedup_baseline_is_smallest_config(self):
        """The baseline must be min(vlens)/min(l2_mbs) even when the
        grids were listed largest-first."""
        s = self._sweep(
            {(512, 1): 100.0, (512, 64): 80.0,
             (2048, 1): 50.0, (2048, 64): 40.0},
            vlens=(2048, 512), l2_mbs=(64, 1),
        )
        assert s.speedup(512, 1) == pytest.approx(1.0)
        assert s.speedup(2048, 64) == pytest.approx(100.0 / 40.0)

    def test_point_outside_grid_rejected(self):
        with pytest.raises(ConfigError):
            self._sweep({(4096, 1): 1.0}, vlens=(512,), l2_mbs=(1,))

    def test_partial_grid_and_merge(self):
        a = self._sweep({(512, 1): 100.0}, vlens=(512, 1024), l2_mbs=(1,))
        assert not a.is_complete
        assert a.missing_points() == ((1024, 1),)
        b = self._sweep({(1024, 1): 50.0}, vlens=(1024,), l2_mbs=(1,))
        merged = a.merge(b)
        assert merged.is_complete
        assert merged.vlens == (512, 1024)
        assert merged.speedup(1024, 1) == pytest.approx(2.0)

    def test_merge_prefers_own_points(self):
        a = self._sweep({(512, 1): 100.0}, vlens=(512,), l2_mbs=(1,))
        b = self._sweep({(512, 1): 999.0}, vlens=(512,), l2_mbs=(1,))
        assert a.merge(b).at(512, 1).total.issue_cycles == 100.0

    def test_merge_rejects_name_mismatch(self):
        a = self._sweep({}, vlens=(512,), l2_mbs=(1,), name="a")
        b = self._sweep({}, vlens=(512,), l2_mbs=(1,), name="b")
        with pytest.raises(ConfigError):
            a.merge(b)

    def test_best_requires_results(self):
        with pytest.raises(ConfigError):
            self._sweep({}, vlens=(512,), l2_mbs=(1,)).best()


class TestBackendProvenance:
    """The checkpoint schema records which backend produced each point,
    and nothing — merge, resume, or a hand-edited file — may mix the
    backends' L2 criteria inside one grid."""

    def test_merge_rejects_mixed_backends(self):
        a = SweepResult(name="net", vlens=(512,), l2_mbs=(1,),
                        results={(512, 1): _fake_result("net", 100.0)},
                        backend="exact")
        b = SweepResult(name="net", vlens=(1024,), l2_mbs=(1,),
                        results={(1024, 1): _fake_result("net", 50.0)},
                        backend="fast")
        with pytest.raises(ConfigError, match="backend"):
            a.merge(b)
        with pytest.raises(ConfigError, match="backend"):
            b.merge(a)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            SweepResult(name="net", vlens=(512,), l2_mbs=(1,),
                        results={}, backend="approximate")

    def test_resume_in_different_mode_rejected(self, tmp_path, layers):
        ckpt = tmp_path / "run"
        codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                       l2_mbs=(L2_MBS[0],), checkpoint_dir=ckpt,
                       mode="fast")
        with pytest.raises(ConfigError):
            codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                           l2_mbs=(L2_MBS[0],), checkpoint_dir=ckpt,
                           mode="exact")

    def test_point_payload_records_backend(self, tmp_path, layers):
        for mode in ("exact", "fast"):
            ckpt = tmp_path / mode
            sweep = codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                                   l2_mbs=(L2_MBS[0],),
                                   checkpoint_dir=ckpt, mode=mode)
            assert sweep.backend == mode
            payload = json.loads(
                _point_path(ckpt, VLENS[0], L2_MBS[0]).read_text())
            assert payload["version"] == CHECKPOINT_VERSION
            assert payload["backend"] == mode
            manifest = json.loads((ckpt / MANIFEST_NAME).read_text())
            assert manifest["backend"] == mode

    def test_fast_resume_restores_instead_of_recomputing(
            self, tmp_path, layers):
        ckpt = tmp_path / "run"
        full = codesign_sweep("vgg-head", layers, vlens=VLENS,
                              l2_mbs=L2_MBS, mode="fast")
        codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                       l2_mbs=L2_MBS, checkpoint_dir=ckpt, mode="fast")
        events = []
        resumed = codesign_sweep("vgg-head", layers, vlens=VLENS,
                                 l2_mbs=L2_MBS, checkpoint_dir=ckpt,
                                 mode="fast", on_progress=events.append)
        assert resumed == full
        restored = {(e.vlen, e.l2_mb) for e in events if e.from_checkpoint}
        assert restored == {(VLENS[0], l) for l in L2_MBS}

    def test_hand_edited_foreign_backend_point_is_recomputed(
            self, tmp_path, layers):
        """Belt and suspenders below the manifest: a point file claiming
        the other backend is treated as missing, not trusted."""
        ckpt = tmp_path / "run"
        codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                       l2_mbs=(L2_MBS[0],), checkpoint_dir=ckpt,
                       mode="fast")
        point = _point_path(ckpt, VLENS[0], L2_MBS[0])
        payload = json.loads(point.read_text())
        payload["backend"] = "exact"
        point.write_text(json.dumps(payload))
        events = []
        with pytest.warns(RuntimeWarning, match="checkpoint_corrupt"):
            codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                           l2_mbs=(L2_MBS[0],), checkpoint_dir=ckpt,
                           mode="fast", on_progress=events.append)
        assert all(not e.from_checkpoint for e in events)
        assert json.loads(point.read_text())["backend"] == "fast"


class TestProgressDescribe:
    def test_ticker_line(self):
        p = SweepProgress(done=3, total=20, vlen=2048, l2_mb=64,
                          point_seconds=0.52, elapsed_seconds=6.1,
                          eta_seconds=4.2, from_checkpoint=False)
        text = p.describe()
        assert "[3/20]" in text and "2048b/64MB" in text and "eta" in text
        r = SweepProgress(done=1, total=2, vlen=512, l2_mb=1,
                          point_seconds=0.0, elapsed_seconds=0.1,
                          eta_seconds=0.0, from_checkpoint=True)
        assert "restored" in r.describe()

    def test_unknown_eta_rendered_as_dash(self):
        p = SweepProgress(done=1, total=4, vlen=512, l2_mb=1,
                          point_seconds=0.0, elapsed_seconds=0.1,
                          eta_seconds=None, from_checkpoint=True)
        assert "eta —" in p.describe()


class TestSilentFailureFixes:
    """The executor's former silent-failure paths now speak: corrupt
    checkpoints warn and are counted, pool degradation is flagged on
    the result, and the ETA admits ignorance instead of claiming 0."""

    def test_corrupt_checkpoint_warns_counts_and_recomputes(
            self, tmp_path, layers, serial_sweep):
        ckpt = tmp_path / "run"
        codesign_sweep("vgg-head", layers, vlens=VLENS, l2_mbs=L2_MBS,
                       checkpoint_dir=ckpt)
        point = _point_path(ckpt, VLENS[0], L2_MBS[0])
        point.write_text("}{ not json")
        sink = MemorySink()
        with pytest.warns(RuntimeWarning, match="checkpoint_corrupt"):
            resumed = codesign_sweep("vgg-head", layers, vlens=VLENS,
                                     l2_mbs=L2_MBS, checkpoint_dir=ckpt,
                                     sink=sink)
        assert resumed == serial_sweep
        corrupt = sink.of_kind("checkpoint_corrupt")
        assert len(corrupt) == 1
        assert corrupt[0]["file"] == str(point)
        assert "invalid JSON" in corrupt[0]["reason"]
        assert corrupt[0]["level"] == "warning"
        manifest = json.loads((ckpt / MANIFEST_NAME).read_text())
        assert manifest["run"] == {
            "computed": 1, "restored": 3,
            "dropped_checkpoints": 1, "degraded": False,
        }
        # The repaired point file is valid again.
        assert json.loads(point.read_text())["version"] == CHECKPOINT_VERSION

    def test_incomplete_point_is_recomputed_not_restored_as_zero(
            self, tmp_path, layers, serial_sweep):
        """A point the result decoder would fill with defaults (0 cycles)
        is not canonical: resume drops it, naming the field."""
        ckpt = tmp_path / "run"
        codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                       l2_mbs=(L2_MBS[0],), checkpoint_dir=ckpt)
        point = _point_path(ckpt, VLENS[0], L2_MBS[0])
        payload = json.loads(point.read_text())
        payload["result"] = {"name": "x", "total": {"freq_ghz": 2}}
        point.write_text(json.dumps(payload))
        sink = MemorySink()
        events = []
        with pytest.warns(RuntimeWarning, match="checkpoint_corrupt"):
            sweep = codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                                   l2_mbs=(L2_MBS[0],), checkpoint_dir=ckpt,
                                   sink=sink, on_progress=events.append)
        [ev] = sink.of_kind("checkpoint_corrupt")
        assert "result.per_layer" in ev["reason"]
        assert not any(e.from_checkpoint for e in events)
        key = (VLENS[0], L2_MBS[0])
        assert sweep.at(*key) == serial_sweep.results[key]
        assert sweep.at(*key).cycles > 0

    def test_point_of_another_grid_cell_is_dropped(self, tmp_path, layers):
        ckpt = tmp_path / "run"
        codesign_sweep("vgg-head", layers, vlens=VLENS, l2_mbs=(L2_MBS[0],),
                       checkpoint_dir=ckpt)
        src = _point_path(ckpt, VLENS[0], L2_MBS[0])
        _point_path(ckpt, VLENS[1], L2_MBS[0]).write_text(src.read_text())
        sink = MemorySink()
        with pytest.warns(RuntimeWarning, match="checkpoint_corrupt"):
            codesign_sweep("vgg-head", layers, vlens=VLENS,
                           l2_mbs=(L2_MBS[0],), checkpoint_dir=ckpt, sink=sink)
        [ev] = sink.of_kind("checkpoint_corrupt")
        assert f"holds point {VLENS[0]}b/{L2_MBS[0]}MB" in ev["reason"]

    def test_non_dict_payload_is_dropped_with_reason(
            self, tmp_path, layers, serial_sweep):
        ckpt = tmp_path / "run"
        codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                       l2_mbs=(L2_MBS[0],), checkpoint_dir=ckpt)
        _point_path(ckpt, VLENS[0], L2_MBS[0]).write_text("[1, 2, 3]")
        sink = MemorySink()
        with pytest.warns(RuntimeWarning):
            codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                           l2_mbs=(L2_MBS[0],), checkpoint_dir=ckpt,
                           sink=sink)
        [ev] = sink.of_kind("checkpoint_corrupt")
        assert "not a JSON object" in ev["reason"]

    def test_run_telemetry_in_manifest_does_not_break_resume(
            self, tmp_path, layers, serial_sweep):
        """The manifest's run section differs between runs; identity
        comparison must ignore it or every resume would be rejected."""
        ckpt = tmp_path / "run"
        codesign_sweep("vgg-head", layers, vlens=VLENS, l2_mbs=L2_MBS,
                       checkpoint_dir=ckpt)
        assert "run" in json.loads((ckpt / MANIFEST_NAME).read_text())
        events = []
        again = codesign_sweep("vgg-head", layers, vlens=VLENS,
                               l2_mbs=L2_MBS, checkpoint_dir=ckpt,
                               on_progress=events.append)
        assert again == serial_sweep
        assert all(e.from_checkpoint for e in events)

    def test_pool_break_degrades_loudly_and_completes(
            self, monkeypatch, layers, serial_sweep):
        """A pool that breaks mid-sweep falls back to serial for the
        missing points — with a warning, a pool_degraded event, and the
        degraded flag set — and still produces the exact grid."""
        from concurrent.futures.process import BrokenProcessPool

        import repro.codesign.executor as executor

        def broken_wait(*args, **kwargs):
            raise BrokenProcessPool("worker killed")

        monkeypatch.setattr(executor, "wait", broken_wait)
        sink = MemorySink()
        with pytest.warns(RuntimeWarning, match="pool_degraded"):
            sweep = codesign_sweep("vgg-head", layers, vlens=VLENS,
                                   l2_mbs=L2_MBS, workers=2, sink=sink)
        assert sweep.degraded
        assert sweep.results == serial_sweep.results
        assert sweep.runtime_grid() == serial_sweep.runtime_grid()
        [ev] = sink.of_kind("pool_degraded")
        assert "BrokenProcessPool" in ev["reason"]
        assert "serial" in ev["reason"]
        [end] = sink.of_kind("sweep_end")
        assert end["degraded"] and end["computed"] == 4

    def test_pool_unavailable_at_startup_degrades_loudly(
            self, monkeypatch, layers, serial_sweep):
        """A platform that cannot start a pool at all (fork blocked)
        degrades before submitting anything."""
        import repro.codesign.executor as executor

        def no_pool(*args, **kwargs):
            raise OSError("fork blocked")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", no_pool)
        sink = MemorySink()
        with pytest.warns(RuntimeWarning, match="pool_degraded"):
            sweep = codesign_sweep("vgg-head", layers, vlens=VLENS,
                                   l2_mbs=L2_MBS, workers=2, sink=sink)
        assert sweep.degraded
        assert sweep.results == serial_sweep.results
        [ev] = sink.of_kind("pool_degraded")
        assert "fork blocked" in ev["reason"]

    def test_degraded_flag_round_trips_and_merges(self, serial_sweep):
        d = serial_sweep.to_dict()
        assert "degraded" not in d  # clean sweeps keep the old shape
        bad = SweepResult.from_dict({**d, "degraded": True})
        assert bad.degraded
        assert "degraded" in bad.to_dict()
        assert SweepResult.from_dict(json.loads(json.dumps(
            bad.to_dict()))).degraded
        # Merging taints the union.
        assert bad.merge(serial_sweep).degraded
        assert serial_sweep.merge(bad).degraded

    def test_serial_by_design_is_not_degraded(self, layers):
        sink = MemorySink()
        sweep = codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                               l2_mbs=(L2_MBS[0],), workers=1, sink=sink)
        assert not sweep.degraded
        assert not sink.of_kind("pool_degraded")


class TestEtaSemantics:
    def test_restore_only_resume_has_no_eta(self, tmp_path, layers):
        """A resume that only restores checkpoints has nothing to
        extrapolate from: eta is None (rendered 'eta —'), not the old
        confident 0.0."""
        ckpt = tmp_path / "run"
        codesign_sweep("vgg-head", layers, vlens=VLENS, l2_mbs=L2_MBS,
                       checkpoint_dir=ckpt)
        events = []
        codesign_sweep("vgg-head", layers, vlens=VLENS, l2_mbs=L2_MBS,
                       checkpoint_dir=ckpt, on_progress=events.append)
        assert len(events) == 4
        assert all(e.from_checkpoint for e in events)
        assert all(e.eta_seconds is None for e in events)
        assert all("eta —" in e.describe() for e in events)

    def test_mixed_resume_restores_excluded_from_eta_base(
            self, tmp_path, layers):
        """Restored points contribute neither time nor count to the
        extrapolation; computed points after them get a real ETA."""
        ckpt = tmp_path / "run"
        codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                       l2_mbs=L2_MBS, checkpoint_dir=ckpt)
        events = []
        codesign_sweep("vgg-head", layers, vlens=VLENS, l2_mbs=L2_MBS,
                       checkpoint_dir=ckpt, on_progress=events.append)
        restored = [e for e in events if e.from_checkpoint]
        computed = [e for e in events if not e.from_checkpoint]
        assert len(restored) == 2 and len(computed) == 2
        assert all(e.eta_seconds is None for e in restored)
        assert all(e.eta_seconds is not None and e.eta_seconds >= 0
                   for e in computed)
        # The last computed point leaves nothing remaining.
        assert computed[-1].done == 4
        assert computed[-1].eta_seconds == 0.0


class TestEventStream:
    def test_serial_sweep_event_stream_shape(self, layers):
        sink = MemorySink()
        codesign_sweep("vgg-head", layers, vlens=VLENS, l2_mbs=L2_MBS,
                       sink=sink)
        kinds = [e["event"] for e in sink.events]
        assert kinds[0] == "sweep_start" and kinds[-1] == "sweep_end"
        assert kinds[1:-1] == ["point_finished"] * 4
        assert [e["seq"] for e in sink.events] == list(range(6))
        start = sink.of_kind("sweep_start")[0]
        assert start["backend"] == "exact" and start["total"] == 4
        end = sink.of_kind("sweep_end")[0]
        assert end["computed"] == 4 and end["restored"] == 0
        assert not end["degraded"] and end["dropped_checkpoints"] == 0

    def test_progress_ticks_mirror_events(self, layers):
        sink = MemorySink()
        ticks = []
        codesign_sweep("vgg-head", layers, vlens=(VLENS[0],),
                       l2_mbs=L2_MBS, sink=sink, on_progress=ticks.append)
        finished = sink.of_kind("point_finished")
        assert [SweepProgress.from_event(e) for e in finished] == ticks

    def test_ticks_are_built_only_for_a_listener(self, layers, monkeypatch):
        """With no sink and no ``on_progress`` a sweep builds no tick
        event (nor its ETA); the summary is still built and counted."""
        built = []
        real_event = executor.event

        def spy(kind, **fields):
            ev = real_event(kind, **fields)
            built.append(ev)
            return ev

        monkeypatch.setattr(executor, "event", spy)
        codesign_sweep("vgg-head", layers, vlens=VLENS, l2_mbs=L2_MBS)
        assert [e["event"] for e in built] == ["sweep_start", "sweep_end"]
        assert built[-1]["computed"] == 4 and built[-1]["restored"] == 0
        built.clear()
        ticks = []
        codesign_sweep("vgg-head", layers, vlens=VLENS, l2_mbs=L2_MBS,
                       on_progress=ticks.append)
        assert [e["event"] for e in built].count("point_finished") == 4
        assert [t.done for t in ticks] == [1, 2, 3, 4]
