"""Tests for the Cook-Toom construction and the tiled Winograd pipeline."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.winograd import (
    NNPACK_POINTS_F6X3,
    TileGrid,
    WinogradConv2d,
    accuracy_vs_filter_size,
    compare_point_sets,
    cook_toom,
    extract_tiles,
    f6x3_transforms,
    measure_accuracy,
    stitch_tiles,
)


def direct_corr1d(d, g):
    m = len(d) - len(g) + 1
    return np.array([np.dot(g, d[i : i + len(g)]) for i in range(m)])


def direct_corr2d(d, g):
    r = g.shape[0]
    m = d.shape[0] - r + 1
    return np.array(
        [[np.sum(g * d[i : i + r, j : j + r]) for j in range(m)] for i in range(m)]
    )


class TestCookToom:
    @pytest.mark.parametrize("m,r", [(2, 3), (4, 3), (6, 3), (2, 5), (4, 5), (3, 2), (1, 3)])
    def test_1d_matches_direct(self, m, r):
        tf = cook_toom(m, r)
        rng = np.random.default_rng(1)
        d = rng.standard_normal(tf.n)
        g = rng.standard_normal(r)
        np.testing.assert_allclose(tf.correlate_1d(d, g), direct_corr1d(d, g), atol=1e-10)

    def test_f6x3_shapes(self):
        tf = f6x3_transforms()
        assert tf.n == 8
        assert tf.AT().shape == (6, 8)
        assert tf.G().shape == (8, 3)
        assert tf.BT().shape == (8, 8)

    def test_f6x3_uses_nnpack_points(self):
        tf = f6x3_transforms()
        assert tf.points == NNPACK_POINTS_F6X3

    def test_f6x3_is_cached_and_equals_a_fresh_construction(self):
        from repro.kernels import transforms
        from repro.model import winograd_model

        tf = f6x3_transforms()
        assert tf == cook_toom(6, 3, NNPACK_POINTS_F6X3)
        assert f6x3_transforms() is tf
        assert winograd_model.f6x3_transforms() is tf
        assert transforms.f6x3_transforms() is tf
        # The array accessors hand out fresh arrays: callers cannot
        # corrupt the shared value.
        assert tf.BT() is not tf.BT()

    def test_2d_matches_direct(self):
        tf = f6x3_transforms()
        rng = np.random.default_rng(2)
        d = rng.standard_normal((8, 8))
        g = rng.standard_normal((3, 3))
        np.testing.assert_allclose(tf.correlate_2d(d, g), direct_corr2d(d, g), atol=1e-10)

    def test_multiplication_reduction(self):
        tf = f6x3_transforms()
        assert tf.multiplication_count_2d() == 64
        # Direct F(6x6,3x3) needs 36*9 = 324 multiplications: 5.0625x.
        assert tf.arithmetic_reduction_2d() == pytest.approx(5.0625)

    def test_repeated_points_rejected(self):
        with pytest.raises(ConfigError):
            cook_toom(2, 3, [Fraction(0), Fraction(0)])

    def test_wrong_point_count_rejected(self):
        with pytest.raises(ConfigError):
            cook_toom(6, 3, [Fraction(0), Fraction(1)])

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            cook_toom(0, 3)

    def test_exactness_of_rational_matrices(self):
        """BT of F(2,3) over points 0,1,-1 has the textbook form."""
        tf = cook_toom(2, 3)
        bt = tf.BT()
        # Row polynomials: (x-1)(x+1)=x^2-1; x(x+1)=x^2+x; x(x-1)=x^2-x; M=x^3-x.
        expected = np.array(
            [
                [-1, 0, 1, 0],
                [0, 1, 1, 0],
                [0, -1, 1, 0],
                [0, -1, 0, 1],
            ],
            dtype=np.float64,
        )
        np.testing.assert_array_equal(bt, expected)

    @given(
        m=st.integers(min_value=1, max_value=6),
        r=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_1d_correctness(self, m, r, seed):
        """Property: any generated F(m, r) computes exact correlation."""
        tf = cook_toom(m, r)
        rng = np.random.default_rng(seed)
        d = rng.uniform(-2, 2, tf.n)
        g = rng.uniform(-2, 2, r)
        np.testing.assert_allclose(
            tf.correlate_1d(d, g), direct_corr1d(d, g), atol=1e-8
        )


class TestTileGrid:
    def test_vgg_style_geometry(self):
        g = TileGrid(h_in=224, w_in=224, pad=1, m=6, n=8)
        assert (g.h_out, g.w_out) == (224, 224)
        assert (g.tiles_h, g.tiles_w) == (38, 38)

    def test_paper_input_geometry(self):
        """768x576 input with pad 1, as the paper's inference task."""
        g = TileGrid(h_in=576, w_in=768, pad=1, m=6, n=8)
        assert (g.h_out, g.w_out) == (576, 768)
        assert (g.tiles_h, g.tiles_w) == (96, 128)
        assert g.num_tiles == 12288

    def test_too_small_input_rejected(self):
        with pytest.raises(ConfigError):
            TileGrid(h_in=1, w_in=1, pad=0, m=6, n=8)

    def test_extract_stitch_roundtrip_identity_filter(self):
        """Stitching m x m crops of extracted tiles rebuilds the interior."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 26)).astype(np.float32)
        g = TileGrid(h_in=20, w_in=26, pad=0, m=6, n=8)
        tiles = extract_tiles(x, g)
        inner = tiles[:, :6, :6]  # top-left m x m of each tile
        out = stitch_tiles(inner, g)
        np.testing.assert_array_equal(out, x[: g.h_out, : g.w_out])


class TestWinogradConv2d:
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("c,k,h,w", [(1, 1, 8, 8), (3, 2, 14, 20), (4, 8, 12, 12), (5, 3, 9, 17)])
    def test_matches_direct_conv(self, c, k, h, w, pad):
        from repro.conv import direct_conv2d

        rng = np.random.default_rng(c * 100 + k)
        x = rng.standard_normal((c, h, w)).astype(np.float32)
        wts = rng.standard_normal((k, c, 3, 3)).astype(np.float32)
        conv = WinogradConv2d(dtype=np.float64)
        got = conv(x, wts, pad=pad)
        ref = direct_conv2d(x.astype(np.float64), wts.astype(np.float64), stride=1, pad=pad)
        np.testing.assert_allclose(got, ref, atol=1e-9)

    def test_fp32_error_is_small(self):
        from repro.conv import direct_conv2d

        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 18, 18)).astype(np.float32)
        wts = rng.standard_normal((4, 8, 3, 3)).astype(np.float32)
        got = WinogradConv2d(dtype=np.float32)(x, wts, pad=1)
        ref = direct_conv2d(x.astype(np.float64), wts.astype(np.float64), stride=1, pad=1)
        assert np.max(np.abs(got - ref)) < 1e-3

    def test_channel_mismatch_rejected(self):
        x = np.zeros((3, 8, 8), dtype=np.float32)
        wts = np.zeros((2, 4, 3, 3), dtype=np.float32)
        with pytest.raises(ConfigError):
            WinogradConv2d()(x, wts)

    def test_intermediate_layouts(self):
        """V is [p, t, c]; U is [p, k, c]; M is [p, k, t]."""
        conv = WinogradConv2d()
        x = np.ones((3, 10, 16), dtype=np.float32)
        wts = np.ones((5, 3, 3, 3), dtype=np.float32)
        grid = conv.grid(10, 16, pad=1)
        v = conv.transform_input(x, pad=1)
        u = conv.transform_filters(wts)
        m = conv.tuple_multiply(u, v)
        assert v.shape == (64, grid.num_tiles, 3)
        assert u.shape == (64, 5, 3)
        assert m.shape == (64, 5, grid.num_tiles)

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        c=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=4),
        h=st.integers(min_value=6, max_value=20),
        w=st.integers(min_value=6, max_value=20),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_equals_direct(self, seed, c, k, h, w):
        from repro.conv import direct_conv2d

        rng = np.random.default_rng(seed)
        x = rng.standard_normal((c, h, w))
        wts = rng.standard_normal((k, c, 3, 3))
        got = WinogradConv2d(dtype=np.float64)(x, wts, pad=1)
        ref = direct_conv2d(x, wts, stride=1, pad=1)
        np.testing.assert_allclose(got, ref, atol=1e-8)


class TestAccuracy:
    def test_error_grows_with_filter_size(self):
        """The paper's Section 2 claim: Winograd degrades for large r."""
        reports = accuracy_vs_filter_size(filter_sizes=(3, 7, 11), samples=50)
        errs = [r.mean_rel_error for r in reports]
        assert errs[0] < errs[1] < errs[2]
        assert errs[0] < 5e-5  # F(6,3) is safe in fp32
        assert errs[2] > 2e-4  # F(6,11) has an order of magnitude more error

    def test_point_selection_matters(self):
        """Bad (large-magnitude) points hurt accuracy at equal m, r."""
        from fractions import Fraction as F

        good = NNPACK_POINTS_F6X3
        bad = tuple(F(i) for i in (0, 1, -1, 2, -2, 3, -3))
        r_good, r_bad = compare_point_sets(6, 3, [good, bad], samples=100)
        assert r_good.max_rel_error < r_bad.max_rel_error

    def test_report_fields(self):
        rep = measure_accuracy(f6x3_transforms(), samples=10)
        assert rep.samples == 10
        assert 0 <= rep.mean_rel_error <= rep.max_rel_error
