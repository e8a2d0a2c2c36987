"""Tests for the network models (Darknet cfg parsing, VGG16, YOLOv3)."""

import pytest

from repro.conv import ConvAlgorithm, ConvLayerSpec, choose_algorithm
from repro.errors import ConfigError
from repro.nets import (
    MaxPoolSpec,
    ShortcutSpec,
    build_layers,
    parse_cfg,
    simulate_inference,
    vgg16_conv_layers,
    vgg16_layers,
    winograd_layer_count,
    yolov3_conv_layers,
    yolov3_layers,
)
from repro.sim import SystemConfig


class TestCfgParser:
    def test_sections_and_options(self):
        text = """
        [net]
        height=8
        width=8
        # comment
        [convolutional]
        filters=4
        size=3
        pad=1
        """
        sections = parse_cfg(text)
        assert sections[0][0] == "net"
        assert sections[1][1]["filters"] == "4"

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError):
            parse_cfg("key=value")
        with pytest.raises(ConfigError):
            parse_cfg("[net\nheight=1")
        with pytest.raises(ConfigError):
            parse_cfg("")

    def test_geometry_tracking(self):
        text = """
        [net]
        height=32
        width=32
        channels=3
        [convolutional]
        filters=8
        size=3
        stride=1
        pad=1
        [maxpool]
        size=2
        stride=2
        [convolutional]
        filters=16
        size=3
        stride=2
        pad=1
        """
        layers = build_layers(text)
        conv1, pool, conv2 = layers
        assert isinstance(conv1, ConvLayerSpec)
        assert (conv1.h_out, conv1.w_out) == (32, 32)
        assert isinstance(pool, MaxPoolSpec)
        assert (pool.h_out, pool.w_out) == (16, 16)
        assert (conv2.h_in, conv2.c_in) == (16, 8)
        assert (conv2.h_out, conv2.w_out) == (8, 8)

    def test_shortcut_shape_check(self):
        text = """
        [net]
        height=8
        width=8
        channels=4
        [convolutional]
        filters=4
        size=3
        stride=1
        pad=1
        [convolutional]
        filters=8
        size=1
        stride=1
        [shortcut]
        from=-2
        """
        with pytest.raises(ConfigError):
            build_layers(text)

    def test_1x1_pad_quirk(self):
        """Darknet's 1x1 layers say pad=1 but pad to size//2 = 0."""
        text = """
        [net]
        height=8
        width=8
        channels=4
        [convolutional]
        filters=4
        size=1
        stride=1
        pad=1
        """
        (conv,) = build_layers(text)
        assert conv.pad == 0

    def test_unsupported_section_raises(self):
        text = """
        [net]
        height=8
        width=8
        channels=3
        [route]
        layers=-1
        """
        with pytest.raises(ConfigError):
            build_layers(text)

    def test_max_layers_truncates(self):
        text = """
        [net]
        height=8
        width=8
        channels=3
        [convolutional]
        filters=4
        size=3
        stride=1
        pad=1
        [route]
        layers=-1
        """
        layers = build_layers(text, max_layers=1)
        assert len(layers) == 1


class TestEmbeddedCfgParsedOnce:
    """The embedded VGG16 and YOLOv3 cfgs are parsed on first use, once
    per process; cfg text a caller passes is parsed on every call."""

    @pytest.fixture
    def parses(self, monkeypatch):
        from repro.nets import darknet_cfg, vgg16, yolov3

        texts = []
        real = darknet_cfg.parse_cfg

        def spy(text):
            texts.append(text)
            return real(text)

        monkeypatch.setattr(darknet_cfg, "parse_cfg", spy)
        for module in (vgg16, yolov3):
            module._sections.cache_clear()
        yield texts
        for module in (vgg16, yolov3):
            module._sections.cache_clear()

    def test_each_network_parses_its_cfg_once(self, parses):
        from repro.nets.vgg16 import VGG16_CFG
        from repro.nets.yolov3 import YOLOV3_CFG_HEAD

        assert vgg16_layers(64, 96) == vgg16_layers(64, 96)
        assert yolov3_layers(64, 96) != yolov3_layers(96, 64)
        vgg16_conv_layers()
        yolov3_conv_layers()
        assert parses == [VGG16_CFG, YOLOV3_CFG_HEAD]
        assert vgg16_layers() == build_layers(
            VGG16_CFG, height=576, width=768, name_prefix="vgg.")

    def test_caller_cfg_text_is_parsed_every_call(self, parses):
        from repro.nets.vgg16 import VGG16_CFG

        build_layers(VGG16_CFG, height=64, width=64)
        build_layers(VGG16_CFG, height=64, width=64)
        assert parses == [VGG16_CFG, VGG16_CFG]

    def test_parse_cfg_returns_fresh_mutable_sections(self):
        from repro.nets import vgg16
        from repro.nets.vgg16 import VGG16_CFG

        first = parse_cfg(VGG16_CFG)
        first[0][1]["height"] = "8"
        first.append(("maxpool", {}))
        again = parse_cfg(VGG16_CFG)
        assert again[0][1]["height"] == "576" and len(again) == len(first) - 1
        with pytest.raises(TypeError):
            vgg16._sections()[0][1]["height"] = "8"  # type: ignore[index]


class TestVgg16:
    def test_thirteen_convolutions(self):
        convs = vgg16_conv_layers()
        assert len(convs) == 13
        assert all(c.ksize == 3 and c.stride == 1 and c.pad == 1 for c in convs)

    def test_paper_input_geometry(self):
        convs = vgg16_conv_layers()
        assert (convs[0].h_in, convs[0].w_in, convs[0].c_in) == (576, 768, 3)
        assert convs[-1].c_out == 512
        assert (convs[-1].h_in, convs[-1].w_in) == (36, 48)

    def test_five_pools(self):
        pools = [l for l in vgg16_layers() if isinstance(l, MaxPoolSpec)]
        assert len(pools) == 5

    def test_all_but_first_conv_use_winograd(self):
        """Winograd everywhere except the 3-channel first layer."""
        assert winograd_layer_count(vgg16_layers()) == 12

    def test_channel_progression(self):
        assert [c.c_out for c in vgg16_conv_layers()] == [
            64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512,
        ]


class TestYolov3:
    """The paper's census of the 20-layer prefix (Section 5)."""

    def test_twenty_layers(self):
        assert len(yolov3_layers()) == 20

    def test_fifteen_convolutions(self):
        assert len(yolov3_conv_layers()) == 15

    def test_five_shortcuts(self):
        shorts = [l for l in yolov3_layers() if isinstance(l, ShortcutSpec)]
        assert len(shorts) == 5

    def test_three_stride2(self):
        assert sum(1 for c in yolov3_conv_layers() if c.stride == 2) == 3

    def test_six_1x1(self):
        assert sum(1 for c in yolov3_conv_layers() if c.ksize == 1) == 6

    def test_first_layer_three_channels(self):
        assert yolov3_conv_layers()[0].c_in == 3

    def test_exactly_five_winograd_layers(self):
        """'only 5 layers use the Winograd algorithm' — the paper's
        headline census: 15 convs - 3 strided - 6 1x1 - 1 first."""
        assert winograd_layer_count(yolov3_layers()) == 5

    def test_downsampling_geometry(self):
        convs = yolov3_conv_layers()
        assert (convs[0].h_in, convs[0].w_in) == (576, 768)
        # After the three stride-2 layers: 576/8 x 768/8.
        assert (convs[-1].h_in, convs[-1].w_in) == (72, 96)


class TestInferenceSimulation:
    def test_yolo_simulation_runs_and_totals(self):
        cfg = SystemConfig(vlen_bits=512, l2_mb=1)
        res = simulate_inference("yolo", yolov3_layers(), cfg, hybrid=True)
        assert len(res.per_layer) == 20
        assert res.cycles > 0
        assert res.total.flops == sum(s.flops for s in res.per_layer)

    def test_hybrid_beats_pure_gemm_on_yolo(self):
        """The paper's headline: the hybrid approach wins (~8% at
        2048-bit VLEN / 1 MB L2)."""
        cfg = SystemConfig(vlen_bits=2048, l2_mb=1)
        hybrid = simulate_inference("y", yolov3_layers(), cfg, hybrid=True)
        pure = simulate_inference("y", yolov3_layers(), cfg, hybrid=False)
        assert pure.cycles > hybrid.cycles

    def test_winograd_beats_gemm_on_vgg(self):
        cfg = SystemConfig(vlen_bits=2048, l2_mb=1)
        wino = simulate_inference("v", vgg16_layers(), cfg, hybrid=True)
        gemm = simulate_inference("v", vgg16_layers(), cfg, hybrid=False)
        assert gemm.cycles > wino.cycles

    def test_empty_network_rejected(self):
        with pytest.raises(ConfigError):
            simulate_inference("x", [], SystemConfig())

    def test_labels_record_algorithm(self):
        cfg = SystemConfig(vlen_bits=512, l2_mb=1)
        res = simulate_inference("yolo", yolov3_layers(), cfg, hybrid=True)
        labels = [s.label for s in res.per_layer]
        assert any("winograd" in l for l in labels)
        assert any("im2col" in l for l in labels)
        assert any("shortcut" in l for l in labels)

    def test_shortcut_and_pool_costs_are_small(self):
        cfg = SystemConfig(vlen_bits=512, l2_mb=1)
        res = simulate_inference("yolo", yolov3_layers(), cfg, hybrid=True)
        aux = sum(s.cycles for s in res.per_layer if "shortcut" in s.label)
        assert aux < 0.05 * res.cycles


class TestExtendedYolov3:
    """The embedded cfg extends past the paper's 20 layers."""

    def test_full_embedded_prefix(self):
        from repro.nets.yolov3 import MAX_EMBEDDED_LAYERS

        layers = yolov3_layers(max_layers=MAX_EMBEDDED_LAYERS)
        assert len(layers) == MAX_EMBEDDED_LAYERS == 37
        # The 256-channel residual stage: 8 shortcut blocks in total
        # (3 within the first 20 layers' stage plus those added here).
        shorts = [l for l in layers if isinstance(l, ShortcutSpec)]
        assert len(shorts) == 11

    def test_deeper_prefix_simulates(self):
        layers = yolov3_layers(max_layers=30)
        res = simulate_inference("deep", layers, SystemConfig(vlen_bits=512))
        assert len(res.per_layer) == 30
        assert res.cycles > simulate_inference(
            "short", yolov3_layers(), SystemConfig(vlen_bits=512)
        ).cycles

    def test_default_stays_at_paper_prefix(self):
        assert len(yolov3_layers()) == 20
