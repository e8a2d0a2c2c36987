"""Tiled Winograd convolution pipeline (NumPy reference semantics).

This is the algorithmic ground truth the vectorized kernels are checked
against.  It implements the NNPACK formulation the paper ports: the 2D
input is covered with overlapping ``n x n`` tiles (``n = 8`` for
F(6x6, 3x3)) advancing by the output tile size ``m = 6``; each tile of
each channel is transformed, the per-tuple-position multiplications are
batched matrix products over the channel dimension, and output tiles are
inverse-transformed and stitched together.

Data layouts (chosen to match the vectorized kernels of
:mod:`repro.kernels`, which put the channel dimension innermost so that
inter-tile parallelization across channels maps to unit-stride vectors):

- transformed input   ``V[p, t, c]`` — tuple position, tile, channel;
- transformed filters ``U[p, k, c]`` — tuple position, out-channel, in-channel;
- tuple products      ``M[p, k, t]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigError
from repro.winograd.cook_toom import WinogradTransforms, f6x3_transforms


@dataclass(frozen=True)
class TileGrid:
    """Tiling geometry of a Winograd convolution.

    Attributes:
        h_out/w_out: spatial output size of the convolution.
        tiles_h/tiles_w: number of tiles per dimension.
        m: output tile size; n: input tile size; pad: input padding.
    """

    h_in: int
    w_in: int
    pad: int
    m: int
    n: int

    def __post_init__(self) -> None:
        r = self.n - self.m + 1
        if self.h_in + 2 * self.pad < r or self.w_in + 2 * self.pad < r:
            raise ConfigError(
                f"input {self.h_in}x{self.w_in} with pad {self.pad} is smaller "
                f"than the filter ({r}x{r})"
            )

    @property
    def r(self) -> int:
        return self.n - self.m + 1

    @cached_property
    def h_out(self) -> int:
        return self.h_in + 2 * self.pad - self.r + 1

    @cached_property
    def w_out(self) -> int:
        return self.w_in + 2 * self.pad - self.r + 1

    @cached_property
    def tiles_h(self) -> int:
        return -(-self.h_out // self.m)  # ceil division

    @cached_property
    def tiles_w(self) -> int:
        return -(-self.w_out // self.m)

    @cached_property
    def num_tiles(self) -> int:
        return self.tiles_h * self.tiles_w


def extract_tiles(x: np.ndarray, grid: TileGrid) -> np.ndarray:
    """Cut one channel plane into overlapping n x n tiles.

    Args:
        x: a single channel plane of shape (H, W).
        grid: tiling geometry.

    Returns:
        Array of shape (num_tiles, n, n); border tiles are zero-padded.
    """
    if x.shape != (grid.h_in, grid.w_in):
        raise ConfigError(f"plane shape {x.shape} does not match grid")
    n, m, pad = grid.n, grid.m, grid.pad
    padded = np.zeros(
        (grid.h_in + 2 * pad + n, grid.w_in + 2 * pad + n), dtype=x.dtype
    )
    padded[pad : pad + grid.h_in, pad : pad + grid.w_in] = x
    tiles = np.empty((grid.num_tiles, n, n), dtype=x.dtype)
    t = 0
    for th in range(grid.tiles_h):
        for tw in range(grid.tiles_w):
            y0, x0 = th * m, tw * m
            tiles[t] = padded[y0 : y0 + n, x0 : x0 + n]
            t += 1
    return tiles


def stitch_tiles(tiles: np.ndarray, grid: TileGrid) -> np.ndarray:
    """Assemble m x m output tiles into the (h_out, w_out) plane.

    Inverse of the tiling step: the trailing partial tiles are cropped.
    """
    m = grid.m
    full = np.zeros((grid.tiles_h * m, grid.tiles_w * m), dtype=tiles.dtype)
    t = 0
    for th in range(grid.tiles_h):
        for tw in range(grid.tiles_w):
            full[th * m : (th + 1) * m, tw * m : (tw + 1) * m] = tiles[t]
            t += 1
    return full[: grid.h_out, : grid.w_out]


class WinogradConv2d:
    """F(m x m, r x r) Winograd convolution over NCHW-style tensors.

    Args:
        transforms: the transform set; defaults to NNPACK's F(6x6, 3x3).
        dtype: compute precision for the transform/product stages.  The
            paper's kernels are fp32; tests also use fp64 to separate
            algorithmic from rounding error.
    """

    def __init__(
        self,
        transforms: WinogradTransforms | None = None,
        dtype=np.float32,
    ) -> None:
        self.tf = transforms if transforms is not None else f6x3_transforms()
        self.dtype = np.dtype(dtype)
        self._AT = self.tf.AT(self.dtype)
        self._G = self.tf.G(self.dtype)
        self._BT = self.tf.BT(self.dtype)

    # ------------------------------------------------------------------
    def grid(self, h: int, w: int, pad: int) -> TileGrid:
        return TileGrid(h_in=h, w_in=w, pad=pad, m=self.tf.m, n=self.tf.n)

    def transform_input(self, x: np.ndarray, pad: int) -> np.ndarray:
        """Input transform: (C, H, W) -> V[p, t, c]."""
        c, h, w = x.shape
        grid = self.grid(h, w, pad)
        n = self.tf.n
        v = np.empty((n * n, grid.num_tiles, c), dtype=self.dtype)
        for ci in range(c):
            tiles = extract_tiles(x[ci].astype(self.dtype, copy=False), grid)
            # (t, n, n) -> transform each tile: BT @ d @ BT.T
            td = np.einsum("ij,tjk,lk->til", self._BT, tiles, self._BT)
            v[:, :, ci] = td.reshape(grid.num_tiles, n * n).T
        return v

    def transform_filters(self, weights: np.ndarray) -> np.ndarray:
        """Filter transform: (K, C, r, r) -> U[p, k, c]."""
        k, c, r1, r2 = weights.shape
        if (r1, r2) != (self.tf.r, self.tf.r):
            raise ConfigError(
                f"filter is {r1}x{r2} but transforms are for {self.tf.r}x{self.tf.r}"
            )
        n = self.tf.n
        w = weights.astype(self.dtype, copy=False)
        tg = np.einsum("ij,kcjl,ml->kcim", self._G, w, self._G)
        return tg.reshape(k, c, n * n).transpose(2, 0, 1).copy()

    def tuple_multiply(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Batched per-tuple-position products: M[p, k, t] = U[p] V[p]^T.

        ``U[p]`` is (K, C) and ``V[p]`` is (T, C); the contraction is over
        the channel dimension, exactly what the vectorized tuple
        multiplication kernel accumulates with ``vfmacc``.
        """
        if u.shape[0] != v.shape[0] or u.shape[2] != v.shape[2]:
            raise ConfigError(
                f"tuple shapes disagree: U{u.shape} vs V{v.shape}"
            )
        return np.einsum("pkc,ptc->pkt", u, v)

    def transform_output(
        self, m_prod: np.ndarray, grid: TileGrid
    ) -> np.ndarray:
        """Output transform: M[p, k, t] -> (K, h_out, w_out)."""
        n, m = self.tf.n, self.tf.m
        p, k, t = m_prod.shape
        if p != n * n or t != grid.num_tiles:
            raise ConfigError(f"product tensor shape {m_prod.shape} mismatches grid")
        out = np.empty((k, grid.h_out, grid.w_out), dtype=self.dtype)
        tiles_kt = m_prod.reshape(n, n, k, t)
        # y = AT @ M_tile @ AT.T for every (k, t)
        y = np.einsum("ij,jlkt,ml->iktm", self._AT, tiles_kt, self._AT)
        # y: (m, k, t, m) -> per (k, t) tile (m, m)
        for ki in range(k):
            tiles_out = y[:, ki, :, :].transpose(1, 0, 2)  # (t, m, m)
            out[ki] = stitch_tiles(tiles_out.astype(self.dtype), grid)
        return out

    # ------------------------------------------------------------------
    def __call__(self, x: np.ndarray, weights: np.ndarray, pad: int = 1) -> np.ndarray:
        """Full forward convolution (stride 1).

        Args:
            x: input tensor (C, H, W).
            weights: filters (K, C, r, r).
            pad: symmetric zero padding.

        Returns:
            Output tensor (K, h_out, w_out).
        """
        if x.ndim != 3 or weights.ndim != 4:
            raise ConfigError("expected x as (C,H,W) and weights as (K,C,r,r)")
        if x.shape[0] != weights.shape[1]:
            raise ConfigError(
                f"channel mismatch: input has {x.shape[0]}, filters expect "
                f"{weights.shape[1]}"
            )
        grid = self.grid(x.shape[1], x.shape[2], pad)
        v = self.transform_input(x, pad)
        u = self.transform_filters(weights)
        m_prod = self.tuple_multiply(u, v)
        return self.transform_output(m_prod, grid)
