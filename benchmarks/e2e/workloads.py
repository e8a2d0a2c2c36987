"""Seeded workload generators for the end-to-end benchmark.

Every workload is a pure function of ``(name, seed, scale)``: it returns
only the program's inputs -- sweep columns (which build their layer
lists through :mod:`repro.nets`), darknet cfg text and query payloads
for the service, and kernel cases with their input tensors.  The same
arguments always give the same inputs.

The seed varies inputs without varying the amount of work, so runs on
different seeds stay comparable: it shuffles the order of operations,
picks each sweep column's input shape from a family of shapes with
(nearly) the same pixel count, picks which grid points and cfg widths
the served queries carry, and draws the kernel input data.  Seed 0
uses the canonical shapes (768x576 / 384x288, the paper's resolution
and its quarter).

Operations are grouped in *rounds*.  A run executes whole rounds while
its time lasts; round ``r`` shifts every sweep column to the next shape
of its family, so no column repeats within a run (up to
``len(family)`` rounds) and every column a run evaluates is cold, and
gives every kernel case fresh data.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Any, Iterator

WORKLOADS: dict[str, str] = {
    "sweep_exact": (
        "cold VLEN columns, exact backend, paper L2 axis: phase models, "
        "condensation and replay (nets/model/winograd); pure-GEMM puts "
        "gemm_model on top"
    ),
    "sweep_fast_fine": (
        "cold VLEN columns, fast backend, 48-size L2 axis: stack-distance "
        "profiling per column; bypasses recording, templates and "
        "condensation"
    ),
    "serve_mixed": (
        "repro serve with 2 closed-loop clients: Zipf hot queries (HTTP, "
        "store, NDJSON) plus ~2% cold columns contending for the GIL"
    ),
    "kernel_trace": (
        "RVV kernels run functionally with trace capture, checked against "
        "direct convolution, replayed through the cache simulator"
    ),
}

SCALES = ("full", "smoke")

NETS = ("vgg16", "yolov3-20L")
VLENS = (512, 1024, 2048, 4096)

#: Shape families (width, height), multiples of 32 px.  Within a family
#: the pixel counts agree within ~4% (pairs above and below balance), so
#: a seed's choice of shapes barely moves the amount of work.
LARGE_SHAPES = (
    (768, 576), (576, 768), (704, 640), (640, 704),
    (864, 512), (512, 864), (832, 544), (544, 832),
)
SMALL_SHAPES = (
    (384, 288), (288, 384), (352, 320), (320, 352),
    (448, 256), (256, 448), (416, 256), (256, 416),
)
SMOKE_SHAPES = ((128, 96), (96, 128))

#: The paper's five-point L2 axis used by the exact sweep (MB).
EXACT_L2_MBS = (1, 4, 16, 64, 256)


def _fine_l2_axis() -> tuple[int, ...]:
    """48 integer L2 sizes in 1..256 MB, always including both ends.

    Fixed rather than seeded: it is drawn once from a constant stream,
    so every column of the fast sweep has one expected result whatever
    the run's seed.
    """
    inner = random.Random(48).sample(range(2, 256), 46)
    return tuple(sorted({1, 256, *inner}))


FAST_L2_MBS = _fine_l2_axis()


@dataclass(frozen=True)
class Column:
    """One cold VLEN column: a single-VLEN ``codesign_sweep`` call."""

    net: str
    width: int
    height: int
    hybrid: bool
    vlen: int
    mode: str
    l2_mbs: tuple[int, ...]

    @property
    def id(self) -> str:
        policy = "hybrid" if self.hybrid else "gemm"
        return (f"{self.net}:{self.width}x{self.height}:{policy}:"
                f"v{self.vlen}:{self.mode}")

    def layers(self) -> list[Any]:
        from repro.nets import vgg16_layers, yolov3_layers

        build = vgg16_layers if self.net == "vgg16" else yolov3_layers
        return build(height=self.height, width=self.width)


@dataclass(frozen=True)
class KernelCase:
    """One convolution layer run on the functional RVV machine."""

    algorithm: str  # "winograd" | "im2col" | "direct"
    variant: str    # tuple-multiplication variant (Winograd only)
    c_in: int
    c_out: int
    h: int
    w: int
    ksize: int
    stride: int
    pad: int
    vlen: int

    @property
    def id(self) -> str:
        alg = (f"{self.algorithm}-{self.variant}" if self.variant
               else self.algorithm)
        return (f"{alg}:c{self.c_in}k{self.c_out}:{self.h}x{self.w}:"
                f"k{self.ksize}s{self.stride}p{self.pad}:v{self.vlen}")


@dataclass(frozen=True)
class Sweep:
    name: str
    seed: int
    cells: tuple[tuple[str, str, bool, int], ...]  # (net, size, hybrid, vlen)
    mode: str
    l2_mbs: tuple[int, ...]
    bases: tuple[int, ...]  # per-cell shape index of round 0

    def _family(self, size: str) -> tuple[tuple[int, int], ...]:
        return {"large": LARGE_SHAPES, "small": SMALL_SHAPES,
                "smoke": SMOKE_SHAPES}[size]

    @property
    def max_rounds(self) -> int:
        return min(len(self._family(size)) for _, size, _, _ in self.cells)

    def rounds(self) -> Iterator[list[Column]]:
        """Round ``r``: every cell once, in a seeded order, each at the
        shape ``r`` steps after its round-0 shape."""
        for r in range(self.max_rounds):
            rng = random.Random(f"{self.name}:{self.seed}:{r}")
            cols = []
            for (net, size, hybrid, vlen), base in zip(self.cells, self.bases):
                family = self._family(size)
                w, h = family[(base + r) % len(family)]
                cols.append(Column(net, w, h, hybrid, vlen, self.mode,
                                   self.l2_mbs))
            rng.shuffle(cols)
            yield cols

    def universe(self) -> list[Column]:
        """Every column any seed can produce (the expected table's keys)."""
        out = []
        for net, size, hybrid, vlen in self.cells:
            for w, h in self._family(size):
                out.append(Column(net, w, h, hybrid, vlen, self.mode,
                                  self.l2_mbs))
        return out


def _sweep_cells(scale: str) -> tuple[tuple[str, str, bool, int], ...]:
    if scale == "smoke":
        return (("vgg16", "smoke", True, 2048), ("vgg16", "smoke", True, 4096),
                ("yolov3-20L", "smoke", False, 4096))
    # Both policies at a quarter of the paper's resolution; at the full
    # resolution, hybrid everywhere and pure-GEMM from VLEN 2048 up (its
    # 512/1024-bit columns alone would take a run's whole budget).
    cells = []
    for net in NETS:
        for vlen in VLENS:
            cells.append((net, "large", True, vlen))
            cells.append((net, "small", True, vlen))
            cells.append((net, "small", False, vlen))
            if vlen >= 2048:
                cells.append((net, "large", False, vlen))
    return tuple(cells)


def sweep(name: str, seed: int, scale: str) -> Sweep:
    cells = _sweep_cells(scale)
    if seed == 0:
        bases = tuple(0 for _ in cells)
    else:
        rng = random.Random(f"{name}:shapes:{seed}")
        bases = tuple(rng.randrange(8) for _ in cells)
    if name == "sweep_exact":
        mode, l2s = "exact", EXACT_L2_MBS
    else:
        mode, l2s = "fast", FAST_L2_MBS
    if scale == "smoke":
        l2s = l2s[:2] + l2s[-1:]
    return Sweep(name, seed, cells, mode, l2s, bases)


# ----------------------------------------------------------------------
# kernel_trace
# ----------------------------------------------------------------------
#: (algorithm, variant, c_in, c_out, (h, w), ksize, stride, pad).  Each
#: slot runs at both VLENs and in both orientations ((h, w) and (w, h)).
_KERNEL_SLOTS = (
    ("winograd", "slideup", 8, 8, (12, 18), 3, 1, 1),
    ("winograd", "indexed", 8, 8, (12, 18), 3, 1, 1),
    ("im2col", "", 8, 8, (16, 32), 3, 1, 1),
    ("im2col", "", 8, 16, (32, 40), 3, 2, 1),
    ("direct", "", 16, 16, (24, 32), 1, 1, 0),
    ("direct", "", 16, 16, (32, 48), 1, 2, 0),
)
_SMOKE_KERNEL_SLOTS = (
    ("direct", "", 8, 8, (12, 16), 1, 1, 0),
    ("im2col", "", 4, 4, (8, 12), 3, 1, 1),
)
KERNEL_VLENS = (512, 2048)


@dataclass(frozen=True)
class Kernels:
    """Every round runs every case once, in a seeded order, on fresh
    seeded data."""

    seed: int
    scale: str
    max_rounds = 8

    def universe(self) -> list[KernelCase]:
        slots = _SMOKE_KERNEL_SLOTS if self.scale == "smoke" else _KERNEL_SLOTS
        vlens = (512,) if self.scale == "smoke" else KERNEL_VLENS
        out = []
        for alg, variant, c, k, (h, w), ks, s, p in slots:
            for vlen in vlens:
                for hh, ww in ((h, w), (w, h)):
                    out.append(KernelCase(alg, variant, c, k, hh, ww, ks, s, p,
                                          vlen))
        return out

    def rounds(self) -> Iterator[list[KernelCase]]:
        for r in range(self.max_rounds):
            cases = self.universe()
            random.Random(f"kernel_trace:{self.seed}:{r}").shuffle(cases)
            yield cases

    def data(self, case: KernelCase, r: int) -> tuple[Any, Any]:
        """The case's input (C, H, W) and filters (K, C, k, k), float32."""
        import numpy as np

        rng = np.random.default_rng(
            [self.seed, r, zlib.crc32(case.id.encode("utf-8"))])
        x = rng.standard_normal((case.c_in, case.h, case.w)).astype(np.float32)
        w = rng.standard_normal(
            (case.c_out, case.c_in, case.ksize, case.ksize)).astype(np.float32)
        return x, w


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
#: Query shapes by Zipf rank (vlens, l2 sizes).  Fixed, so the traffic's
#: cost does not depend on the seed; the seed picks which grid points.
_POOL_SHAPES = ((1, 2), (2, 1), (1, 4), (2, 2), (2, 5), (1, 9), (2, 9),
                (2, 3), (1, 6), (2, 4), (1, 3), (2, 10))
SERVE_L2_MBS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
#: Named networks answer from VLEN 2048 up so warming them stays cheap;
#: the cfg networks are small enough for the whole VLEN axis.
NAMED_VLENS = (2048, 4096)
CFG_VLENS = (512, 1024, 2048, 4096)
COLD_VLENS = (1024, 2048, 4096)


def cfg_text(widths: tuple[int, ...], height: int, width: int) -> str:
    """A small darknet network: conv stem, stride-2 conv, residual
    block, max-pool, 1x1 head -- every layer kind the models know."""
    c0, c1, c2 = widths
    return "\n".join([
        "[net]", f"height={height}", f"width={width}", "channels=3", "",
        "[convolutional]", f"filters={c0}", "size=3", "stride=1", "pad=1", "",
        "[convolutional]", f"filters={c1}", "size=3", "stride=2", "pad=1", "",
        "[convolutional]", f"filters={c0}", "size=1", "stride=1", "pad=1", "",
        "[convolutional]", f"filters={c1}", "size=3", "stride=1", "pad=1", "",
        "[shortcut]", "from=-3", "",
        "[maxpool]", "size=2", "stride=2", "",
        "[convolutional]", f"filters={c2}", "size=1", "stride=1", "pad=1", "",
    ]) + "\n"


@dataclass(frozen=True)
class ServeOp:
    """One query a client sends: a pool index (hot) or a cold payload."""

    payload: dict[str, Any]
    pool_index: int  # -1 for a cold query
    cold_index: int  # -1 for a hot query


@dataclass(frozen=True)
class ServePlan:
    seed: int
    pool: tuple[dict[str, Any], ...]
    warm: tuple[dict[str, Any], ...]
    weights: tuple[float, ...]
    cold_rate: float
    pair_rate: float

    def ops(self) -> Iterator[ServeOp]:
        """The seeded, endless query sequence both clients draw from.

        A cold query is a cfg network no earlier query used; a quarter
        of them are sent twice in a row, so the two clients race for
        the same cold points and the service coalesces them.
        """
        rng = random.Random(f"serve_mixed:ops:{self.seed}")
        cold = 0
        while True:
            if rng.random() < self.cold_rate:
                op = ServeOp(cold_payload(cold, rng), -1, cold)
                cold += 1
                yield op
                if rng.random() < self.pair_rate:
                    yield op
            else:
                i = rng.choices(range(len(self.pool)), self.weights)[0]
                yield ServeOp(self.pool[i], i, -1)


def _cfg_network(seed: int, k: int) -> dict[str, Any]:
    """Pool cfg network ``k``: widths are multiples of 8 (cold queries
    use widths of 4 mod 8, so the two never share a content address)."""
    rng = random.Random(f"serve_mixed:cfg:{seed}:{k}")
    widths = (8 * rng.randint(2, 4), 8 * rng.randint(3, 5), 8 * rng.randint(4, 6))
    height, width = rng.choice(((96, 128), (128, 96)))
    return {"cfg": cfg_text(widths, height, width), "name": f"cfg{k}"}


def cold_payload(index: int, rng: random.Random) -> dict[str, Any]:
    """Cold query ``index``: a network no pool or earlier cold query
    has.  Widths are 4 mod 8 and unique per index; only the cheap 1x1
    head widens as the index grows."""
    widths = (12 + 8 * (index % 3), 20 + 8 * ((index // 3) % 3),
              28 + 8 * (index // 18))
    height, width = ((96, 128), (128, 96))[(index // 9) % 2]
    l2s = sorted(rng.sample(SERVE_L2_MBS, 2))
    return {
        "cfg": cfg_text(widths, height, width), "name": f"cold{index}",
        "vlens": [rng.choice(COLD_VLENS)], "l2_mbs": l2s,
        "mode": rng.choice(("exact", "fast")),
    }


def serve_plan(seed: int, scale: str) -> ServePlan:
    rng = random.Random(f"serve_mixed:pool:{seed}")
    nets: list[tuple[dict[str, Any], tuple[int, ...]]]
    if scale == "smoke":
        nets = [(_cfg_network(seed, k), CFG_VLENS[2:]) for k in range(2)]
        shapes = _POOL_SHAPES[:3]
        size = 6
    else:
        nets = [({"network": "vgg16"}, NAMED_VLENS),
                ({"network": "yolov3"}, NAMED_VLENS)]
        nets += [(_cfg_network(seed, k), CFG_VLENS) for k in range(4)]
        shapes = _POOL_SHAPES
        size = 48
    pool = []
    for i in range(size):
        net, vlens = nets[i % len(nets)]
        n_v, n_l = shapes[(i // len(nets)) % len(shapes)]
        pool.append({
            **net,
            "vlens": sorted(rng.sample(vlens, min(n_v, len(vlens)))),
            "l2_mbs": sorted(rng.sample(SERVE_L2_MBS, n_l)),
            "mode": ("exact", "fast")[(i // (2 * len(nets))) % 2],
        })
    # Warm-up: one query per (network, mode) covering every pool point.
    warm = []
    for net, _ in nets:
        for mode in ("exact", "fast"):
            members = [p for p in pool
                       if p["mode"] == mode
                       and p.get("network") == net.get("network")
                       and p.get("cfg") == net.get("cfg")]
            if members:
                warm.append({
                    **net, "mode": mode,
                    "vlens": sorted({v for p in members for v in p["vlens"]}),
                    "l2_mbs": sorted({l for p in members for l in p["l2_mbs"]}),
                })
    weights = tuple(1.0 / (rank + 1) ** 1.1 for rank in range(size))
    return ServePlan(seed, tuple(pool), tuple(warm), weights,
                     cold_rate=0.2 if scale == "smoke" else 0.02,
                     pair_rate=0.25)


def generate(name: str, seed: int, scale: str = "full") -> Any:
    """The inputs of workload ``name`` for ``seed`` at ``scale``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (choose from "
                         f"{', '.join(WORKLOADS)})")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r} (choose from {SCALES})")
    if name in ("sweep_exact", "sweep_fast_fine"):
        return sweep(name, seed, scale)
    if name == "kernel_trace":
        return Kernels(seed, scale)
    return serve_plan(seed, scale)
