"""Tests for the CLI driver and the trace export/import (Vehave role)."""

import re

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.rvv import Memory, RvvMachine, Tracer
from repro.rvv.trace_io import load_trace, save_trace
from repro.sim import Simulator, SystemConfig


class TestTraceIO:
    def _traced_machine(self):
        m = RvvMachine(512, memory=Memory(1 << 22), tracer=Tracer(capture=True))
        a = m.memory.alloc_f32(256)
        m.memory.write_f32(a, np.arange(256, dtype=np.float32))
        done = 0
        while done < 200:
            vl = m.setvl(200 - done)
            m.vle32(1, a + 4 * done)
            m.vfmul_vf(1, 1, 2.0)
            m.vse32(1, a + 4 * done)
            done += vl
        m.vlse32(2, a, 64)
        offs = (np.arange(16) * 4).astype(np.uint32)
        m.load_index_u32(3, offs)
        m.vluxei32(4, a, 3)
        return m

    def test_roundtrip_counts(self, tmp_path):
        m = self._traced_machine()
        path = tmp_path / "run.trace"
        n = save_trace(m.tracer, path)
        assert n == len(m.tracer.events)
        loaded = load_trace(path)
        assert loaded.counts() == m.tracer.counts()
        assert loaded.total_flops == m.tracer.total_flops
        assert loaded.total_bytes == m.tracer.total_bytes

    def test_roundtrip_replays_identically(self, tmp_path):
        """Record once, re-simulate anywhere: cycle-identical."""
        m = self._traced_machine()
        path = tmp_path / "run.trace"
        save_trace(m.tracer, path)
        loaded = load_trace(path)
        for cfg in (SystemConfig(), SystemConfig(l2_mb=16, vlen_bits=512)):
            a = Simulator(cfg).run_trace(m.tracer)
            b = Simulator(cfg).run_trace(loaded)
            assert a.cycles == b.cycles
            assert a.hierarchy.l2.misses == b.hierarchy.l2.misses

    def test_counts_only_tracer_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            save_trace(Tracer(capture=False), tmp_path / "x.trace")

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.trace"
        p.write_text("not json\n")
        with pytest.raises(ConfigError):
            load_trace(p)

    def test_bad_version_rejected(self, tmp_path):
        p = tmp_path / "bad.trace"
        p.write_text('{"repro_trace": 99}\n')
        with pytest.raises(ConfigError):
            load_trace(p)

    def test_malformed_event_rejected(self, tmp_path):
        p = tmp_path / "bad.trace"
        p.write_text('{"repro_trace": 1}\n{"o": "nonsense", "e": 1, "w": 32}\n')
        with pytest.raises(ConfigError):
            load_trace(p)

    def _load_event(self, tmp_path, event):
        """Load a v2 file whose third line is ``event``."""
        p = tmp_path / "bad.trace"
        p.write_text('{"repro_trace": 2}\n{"o": "vsetvl", "e": 16, "w": 32}\n'
                     + event + "\n")
        return p

    def _assert_rejected(self, tmp_path, event, reason):
        p = self._load_event(tmp_path, event)
        with pytest.raises(ConfigError, match=reason) as info:
            load_trace(p)
        assert f"{p}:3:" in str(info.value)

    def test_string_width_rejected(self, tmp_path):
        self._assert_rejected(
            tmp_path, '{"o": "vfma", "e": 16, "w": "32"}', "'w' must be an integer")

    def test_unknown_access_kind_rejected(self, tmp_path):
        self._assert_rejected(
            tmp_path,
            '{"o": "vload_strided", "e": 2, "w": 32, "k": "bogus", "b": 4096, "s": 8}',
            "unknown access kind 'bogus'")

    def test_indexed_access_without_offsets_rejected(self, tmp_path):
        self._assert_rejected(
            tmp_path, '{"o": "vload_indexed", "e": 2, "w": 32, "k": "indexed", "b": 4096}',
            "indexed access without offsets")

    def test_short_offsets_list_rejected(self, tmp_path):
        self._assert_rejected(
            tmp_path,
            '{"o": "vload_indexed", "e": 3, "w": 32, "k": "indexed", "b": 4096,'
            ' "x": [0, 4]}',
            "2 offsets for 3 elements")

    def test_negative_element_count_rejected(self, tmp_path):
        self._assert_rejected(
            tmp_path, '{"o": "vload_unit", "e": -1, "w": 32, "k": "unit", "b": 4096}',
            "negative element count")

    def test_non_integer_offsets_rejected(self, tmp_path):
        self._assert_rejected(
            tmp_path,
            '{"o": "vload_indexed", "e": 2, "w": 32, "k": "indexed", "b": 4096,'
            ' "x": [0, 4.5]}',
            "offsets must be a list of integers")

    @pytest.mark.parametrize("event,reason", [
        ('{"o": "vload_unit", "e": 2, "w": 32, "k": "unit", "b": 4096,'
         ' "s": 4, "l": "false"}', "field 'l' must be a boolean, got 'false'"),
        ('{"o": "vload_unit", "e": 2, "w": 32, "k": "unit", "b": 4096,'
         ' "s": 4, "l": false}', "'l': false on a vload_unit event"),
        ('{"o": "vfma", "e": 2, "w": 32, "k": "unit", "b": 4096, "s": 4}',
         "vfma event carries memory fields ['b', 'k', 's']"),
        ('{"o": "vload_unit", "e": 2, "w": 32}',
         "vload_unit event without an access kind 'k'"),
        ('{"o": "vload_unit", "e": 2, "w": 32, "k": "strided", "b": 4096,'
         ' "s": 8}', "strided access on a vload_unit event"),
        ('{"o": "vload_unit", "e": 2, "w": 32, "k": "unit", "b": 4096,'
         ' "q": 7}', "field 'q' is 7, the event's is 1"),
        ('{"o": "vfma", "e": 2, "w": 32, "op": {"mn": "vfmacc.vv", "vd": 2.7}}',
         "register 2.7 is not one of v0..v31"),
        ('{"o": "vfma", "e": 2, "w": 32, "op": {"mn": "vfmacc.vv", "vd": 1,'
         ' "vs": [true, 3]}}', "register True is not one of v0..v31"),
        ('{"o": "vfma", "e": 2, "w": 32, "op": {"mn": "vfmacc.vv", "vd": -1}}',
         "register -1 is not one of v0..v31"),
        ('{"o": "vfma", "e": 2, "w": 32, "m": 3}',
         "LMUL 3 is not one of (1, 2, 4, 8)"),
    ])
    def test_inconsistent_event_rejected(self, tmp_path, event, reason):
        self._assert_rejected(tmp_path, event, re.escape(reason))

    def test_version_1_trace_loads(self, tmp_path):
        p = tmp_path / "v1.trace"
        p.write_text('{"repro_trace": 1}\n'
                     '{"o": "vsetvl", "e": 4, "w": 32}\n'
                     '{"o": "vstore_strided", "e": 4, "w": 32, "k": "strided",'
                     ' "b": 4096, "s": 8, "l": false}\n'
                     '{"o": "scalar", "e": 1, "w": 64}\n')
        tracer = load_trace(p)
        assert tracer.counts() == {"scalar": 1, "vsetvl": 1, "vstore_strided": 1}
        mem, = tracer.mem_events()
        assert (mem.is_load, mem.seq, mem.stride) == (False, 1, 8)
        assert [e.ops for e in tracer.events] == [None, None, None]

    def test_valid_indexed_event_loads(self, tmp_path):
        p = self._load_event(
            tmp_path, '{"o": "vload_indexed", "e": 2, "w": 32, "k": "indexed",'
                      ' "b": 4096, "x": [4, 0]}')
        mem, = load_trace(p).mem_events()
        assert mem.offsets == (4, 0) and mem.seq == 1


class TestCli:
    def test_info(self, capsys):
        assert main(["info", "--vlen", "2048", "--l2-mb", "16"]) == 0
        out = capsys.readouterr().out
        assert "VLEN=2048b" in out and "peak GFLOP/s" in out

    def test_conv_winograd(self, capsys):
        rc = main(["conv", "--channels", "4", "--filters", "4",
                   "--size", "12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "functional check" in out and "L2 miss rate" in out

    def test_conv_im2col(self, capsys):
        rc = main(["conv", "--algorithm", "im2col", "--channels", "3",
                   "--filters", "4", "--size", "10", "--ksize", "1",
                   "--stride", "1"])
        assert rc == 0

    def test_conv_winograd_requires_3x3(self, capsys):
        assert main(["conv", "--ksize", "5"]) == 2

    def test_roofline(self, capsys):
        assert main(["roofline", "--layers", "3"]) == 0
        assert "ridge AI" in capsys.readouterr().out

    def test_sweep_quick(self, capsys):
        rc = main(["sweep", "vgg16", "--vlens", "512",
                   "--l2-sizes", "1", ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 2" in out or "miss rate" in out

    def test_sweep_validate_prints_summary(self, capsys):
        rc = main(["sweep", "vgg16", "--vlens", "512",
                   "--l2-sizes", "1", "--mode", "validate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max miss-rate delta" in out

    def test_unknown_network(self):
        with pytest.raises(SystemExit):
            main(["sweep", "resnet"])


class TestJsonOutput:
    def test_sweep_json(self, capsys):
        import json

        rc = main(["sweep", "vgg16", "--vlens", "512",
                   "--l2-sizes", "1", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "exact"
        entry = payload["points"]["512b/1MB"]
        assert entry["cycles"] > 0
        assert 0 <= entry["l2_miss_rate"] <= 1
        assert entry["instructions"]
        assert "validation" not in payload

    def test_sweep_json_fast_mode(self, capsys):
        import json

        rc = main(["sweep", "vgg16", "--vlens", "512",
                   "--l2-sizes", "1", "--mode", "fast", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "fast"
        assert payload["points"]["512b/1MB"]["cycles"] > 0

    def test_sweep_json_validate_mode(self, capsys):
        import json

        from repro.codesign import MISS_RATE_BOUND

        rc = main(["sweep", "vgg16", "--vlens", "512",
                   "--l2-sizes", "1,16", "--mode", "validate", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "exact"
        val = payload["validation"]
        assert set(val["deltas"]) == {"512b/1MB", "512b/16MB"}
        assert 0 <= val["max_miss_rate_delta"] <= MISS_RATE_BOUND
        assert isinstance(val["best_agrees"], bool)

    def test_stats_to_dict_roundtrips_via_json(self):
        import json

        from repro.model import simulate_layer
        from repro.conv import ConvLayerSpec
        from repro.sim import SystemConfig

        spec = ConvLayerSpec(name="l", c_in=8, h_in=20, w_in=20,
                             c_out=8, ksize=3, stride=1, pad=1)
        stats = simulate_layer(spec, SystemConfig())
        d = json.loads(json.dumps(stats.to_dict()))
        assert d["flops"] == stats.flops
        assert d["l2_misses"] == stats.hierarchy.l2.misses


class TestDisassembler:
    def _traced(self):
        import numpy as np

        from repro.rvv import Memory, RvvMachine, Tracer

        m = RvvMachine(512, memory=Memory(1 << 20), tracer=Tracer(capture=True))
        a = m.memory.alloc_f32(64)
        m.setvl(16)
        m.vle32(1, a)
        m.vlse32(2, a, 64)
        offs = (np.arange(16) * 4).astype(np.uint32)
        m.load_index_u32(3, offs)
        m.vluxei32(4, a, 3)
        m.vfmacc_vv(1, 2, 4)
        m.vse32(1, a)
        return m.tracer

    def test_listing_contains_mnemonics(self):
        from repro.rvv import listing

        text = listing(self._traced())
        assert "vsetvli" in text
        assert "vle32.v" in text
        assert "vlse32.v" in text and "stride=64" in text
        assert "vluxei32.v" in text
        assert "vfmacc" in text

    def test_window_selection(self):
        from repro.rvv import listing

        text = listing(self._traced(), start=1, count=2)
        assert len(text.splitlines()) == 2

    def test_counts_only_tracer_rejected(self):
        from repro.errors import ConfigError
        from repro.rvv import Tracer, listing

        with pytest.raises(ConfigError):
            listing(Tracer(capture=False))

    def test_basic_block_summary(self):
        from repro.rvv import summarize_basic_blocks

        text = summarize_basic_blocks(self._traced())
        assert "runs total" in text

    def test_cli_disasm(self, tmp_path, capsys):
        from repro.rvv import save_trace

        path = tmp_path / "t.trace"
        save_trace(self._traced(), path)
        assert main(["disasm", str(path), "--count", "5"]) == 0
        out = capsys.readouterr().out
        assert "vsetvli" in out
        assert main(["disasm", str(path), "--summary"]) == 0
