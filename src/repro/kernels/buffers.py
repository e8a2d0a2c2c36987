"""Simulated-memory buffer management for the vectorized kernels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.kernels.common import (
    Direct1x1Geometry,
    GemmGeometry,
    Im2colGeometry,
    WinogradGeometry,
)
from repro.rvv.machine import VectorEngine


@dataclass(frozen=True)
class WinogradBuffers:
    """Byte base addresses of the Winograd pipeline arenas."""

    x: int  # padded input, CHW
    weights: int  # raw filters (K, C, 3, 3)
    v: int  # transformed input V[p][tb][c][i]
    u: int  # transformed quad-replicated filters U[p][c][4k+e]
    m: int  # tuple products M[p][kp][tb][q][lane]
    y: int  # padded output, K x (tiles_h*6) x (tiles_w*6)
    scratch: int  # per-tile transform intermediate

    @classmethod
    def allocate(cls, machine: VectorEngine, geom: WinogradGeometry) -> "WinogradBuffers":
        mem = machine.memory
        return cls(
            x=mem.alloc_f32(geom.x_size, label="winograd.x"),
            weights=mem.alloc_f32(geom.c_out * geom.c_in * 9,
                                  label="winograd.weights"),
            v=mem.alloc_f32(geom.v_size, label="winograd.v"),
            u=mem.alloc_f32(geom.u_size, label="winograd.u"),
            m=mem.alloc_f32(geom.m_size, label="winograd.m"),
            y=mem.alloc_f32(geom.y_size, label="winograd.y"),
            scratch=mem.alloc_f32(geom.scratch_size, label="winograd.scratch"),
        )

    def load_input(
        self, machine: VectorEngine, geom: WinogradGeometry, x: np.ndarray
    ) -> None:
        """Place a (C, H, W) tensor into the padded input arena.

        Padding (the convolution's zero border plus the tile-overrun
        margin) is zero-filled; this is driver-side data staging, not a
        simulated kernel (Darknet stages inputs the same way).
        """
        if x.shape != (geom.c_in, geom.h, geom.w):
            raise ConfigError(f"input shape {x.shape} mismatches geometry")
        arena = machine.memory.view(self.x, geom.x_size, np.float32)
        arena[:] = 0.0
        padded = arena.reshape(geom.c_in, geom.hp, geom.wp)
        padded[:, geom.pad : geom.pad + geom.h, geom.pad : geom.pad + geom.w] = x
        machine.memory.view(self.y, geom.y_size, np.float32)[:] = 0.0

    def load_weights(
        self, machine: VectorEngine, geom: WinogradGeometry, w: np.ndarray
    ) -> None:
        if w.shape != (geom.c_out, geom.c_in, 3, 3):
            raise ConfigError(f"weight shape {w.shape} mismatches geometry")
        machine.memory.write_f32(self.weights, w.astype(np.float32))

    def read_output(
        self, machine: VectorEngine, geom: WinogradGeometry
    ) -> np.ndarray:
        """Read back and crop the padded output to (K, h_out, w_out)."""
        arena = machine.memory.view(self.y, geom.y_size, np.float32)
        full = arena.reshape(geom.c_out, geom.yp_h, geom.yp_w)
        return full[:, : geom.grid.h_out, : geom.grid.w_out].copy()


@dataclass(frozen=True)
class GemmBuffers:
    """Byte base addresses of the GEMM operands."""

    a: int
    b: int
    c: int

    @classmethod
    def allocate(cls, machine: VectorEngine, geom: GemmGeometry) -> "GemmBuffers":
        mem = machine.memory
        return cls(
            a=mem.alloc_f32(geom.a_size, label="gemm.a"),
            b=mem.alloc_f32(geom.b_size, label="gemm.b"),
            c=mem.alloc_f32(geom.c_size, label="gemm.c"),
        )

    def load(self, machine: VectorEngine, geom: GemmGeometry,
             a: np.ndarray, b: np.ndarray) -> None:
        if a.shape != (geom.m, geom.kd) or b.shape != (geom.kd, geom.n):
            raise ConfigError(
                f"GEMM operand shapes {a.shape}, {b.shape} mismatch geometry"
            )
        machine.memory.write_f32(self.a, a.astype(np.float32))
        machine.memory.write_f32(self.b, b.astype(np.float32))

    def read_c(self, machine: VectorEngine, geom: GemmGeometry) -> np.ndarray:
        return (
            machine.memory.read_f32(self.c, geom.c_size)
            .reshape(geom.m, geom.n)
            .copy()
        )


@dataclass(frozen=True)
class Im2colBuffers:
    """Byte base addresses for the im2col kernel."""

    x: int  # padded input
    cols: int  # column matrix

    @classmethod
    def allocate(cls, machine: VectorEngine, geom: Im2colGeometry) -> "Im2colBuffers":
        mem = machine.memory
        return cls(
            x=mem.alloc_f32(geom.x_size, label="im2col.x"),
            cols=mem.alloc_f32(geom.cols_size, label="im2col.cols"),
        )

    def load_input(
        self, machine: VectorEngine, geom: Im2colGeometry, x: np.ndarray
    ) -> None:
        if x.shape != (geom.c_in, geom.h, geom.w):
            raise ConfigError(f"input shape {x.shape} mismatches geometry")
        arena = machine.memory.view(self.x, geom.x_size, np.float32)
        arena[:] = 0.0
        padded = arena.reshape(geom.c_in, geom.hp, geom.wp)
        padded[:, geom.pad : geom.pad + geom.h, geom.pad : geom.pad + geom.w] = x

    def read_cols(self, machine: VectorEngine, geom: Im2colGeometry) -> np.ndarray:
        return (
            machine.memory.read_f32(self.cols, geom.cols_size)
            .reshape(geom.rows, geom.cols)
            .copy()
        )


@dataclass(frozen=True)
class Direct1x1Buffers:
    """Byte base addresses for the direct 1x1 kernel."""

    x: int
    weights: int
    y: int

    @classmethod
    def allocate(cls, machine: VectorEngine,
                 geom: Direct1x1Geometry) -> "Direct1x1Buffers":
        mem = machine.memory
        return cls(
            x=mem.alloc_f32(geom.x_size, label="direct.x"),
            weights=mem.alloc_f32(geom.w_size, label="direct.weights"),
            y=mem.alloc_f32(geom.y_size, label="direct.y"),
        )
