"""The schedule IR: typed loop nests over algorithm statements.

Following Exo's split of a kernel into an *algorithm* (what is
computed) and a user-visible *schedule* (how its loop nest is tiled,
ordered, vectorized and unrolled), a :class:`Schedule` here is an
immutable value describing one point of the transformation space for
one statement kind:

- ``matmul`` — the C[i, j] += A[i, k] * B[k, j] statement behind both
  the im2col-GEMM microkernel and the direct 1x1 convolution (whose B
  matrix *is* the input feature map).  Axes: ``i`` (rows / output
  channels), ``j`` (columns / pixels — the only vectorizable axis),
  ``k`` (the reduction).
- ``copy`` — the im2col unfolding statement dst[r, y, x] = src[...].
  Axes: ``r`` (column-matrix row, i.e. one (channel, ki, kj) triple),
  ``y`` (output row), ``x`` (output column — the vectorizable axis).

Every primitive returns a new :class:`Schedule`; illegal compositions
raise :class:`~repro.errors.ScheduleError` *at schedule-construction
or validation time* — an illegal schedule never reaches the lowering
pass, so no partial driver program is ever emitted.

Schedules are vector-length-agnostic: ``vectorize`` fixes the LMUL
register grouping, but the vector length itself comes from the machine
at lowering time (the grant rule ``vl = min(AVL, VLMAX)`` strip-mines
the vector axis).  The
special tile size ``"vl"`` means "one full vector grant" —
``LMUL * VLMAX`` elements, whatever VLEN turns out to be.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.errors import ScheduleError
from repro.kernels.common import LMUL_CHOICES

#: Number of architectural vector registers (RVV 1.0 / SVE).
NUM_VREGS = 32

#: Tile-size sentinel: one full vector grant (LMUL * VLMAX elements).
VL = "vl"

#: Axes per statement kind, in canonical (default) loop order.
AXES: dict[str, tuple[str, ...]] = {
    "matmul": ("j", "i", "k"),
    "copy": ("r", "y", "x"),
}

#: The one vectorizable axis per statement kind.
VECTOR_AXES: dict[str, str] = {"matmul": "j", "copy": "x"}

#: The reduction axis per statement kind (None for pure copies).
REDUCTION_AXES: dict[str, str | None] = {"matmul": "k", "copy": None}

#: Accumulator placements (``place("acc", ...)``).
PLACEMENTS = ("register", "memory")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScheduleError(message)


@dataclass(frozen=True)
class Schedule:
    """One point of the scheduling space for one statement kind.

    Use :func:`matmul_schedule` / :func:`copy_schedule` to obtain the
    canonical base schedule, then chain primitives::

        sched = (matmul_schedule()
                 .tile("j", VL).vectorize("j", lmul=1)
                 .tile("i", 8).unroll("i"))

    Attributes:
        kind: statement kind (``matmul`` or ``copy``).
        tiles: axis -> tile size (int elements, or :data:`VL`).
        order: loop order of the *outer* (block) loops, a permutation
            of the kind's axes.  The reduction axis' position only
            matters when it is tiled (untiled reductions always run
            innermost to preserve fp32 accumulation order).
        vector_axis: the vectorized axis, or None while unset.
        lmul: RVV register-group multiplier of the vector axis.
        unrolled: axis whose inner tile is fully unrolled into
            registers (matmul's ``i`` -> the microkernel's ``mr``).
        acc: accumulator placement — ``register`` keeps C rows live in
            vector registers across the whole reduction; ``memory``
            stores/reloads them per reduction block (required when the
            reduction axis is tiled).
        setvl_hoist: emit one ``vsetvl`` per vector strip (hoisted out
            of the inner block loops, like the direct 1x1 kernel) when
            True; one per innermost block (like the GEMM microkernel)
            when False.
    """

    kind: str
    tiles: Mapping[str, int | str] = field(default_factory=dict)
    order: tuple[str, ...] = ()
    vector_axis: str | None = None
    lmul: int = 1
    unrolled: str | None = None
    acc: str = "register"
    setvl_hoist: bool = False

    def __post_init__(self) -> None:
        _require(self.kind in AXES, f"unknown statement kind {self.kind!r}")
        if not self.order:
            object.__setattr__(self, "order", AXES[self.kind])

    # -- helpers ---------------------------------------------------------
    @property
    def axes(self) -> tuple[str, ...]:
        return AXES[self.kind]

    def _check_axis(self, axis: str) -> None:
        _require(axis in self.axes,
                 f"unknown axis {axis!r} for {self.kind} "
                 f"(axes: {', '.join(self.axes)})")

    # -- primitives ------------------------------------------------------
    def tile(self, axis: str, size: int | str) -> "Schedule":
        """Split ``axis`` into an outer block loop and an inner tile.

        ``size`` is the inner tile extent in elements, or :data:`VL`
        for one full vector grant (only meaningful on the vector
        axis).  Tails are handled by the lowering (the last tile may
        be partial), but the tile itself must be aligned: an integer
        tile of the vector axis must be a positive multiple of
        ``4 * LMUL`` lanes — the machine's VLMAX granularity — or the
        schedule is rejected as misaligned.
        """
        self._check_axis(axis)
        _require(axis not in self.tiles, f"axis {axis!r} is already tiled")
        if size == VL:
            _require(axis == VECTOR_AXES[self.kind],
                     f"tile size {VL!r} only applies to the vector axis "
                     f"{VECTOR_AXES[self.kind]!r}, not {axis!r}")
        else:
            _require(isinstance(size, int) and not isinstance(size, bool)
                     and size >= 1,
                     f"tile size must be a positive int or {VL!r}, "
                     f"got {size!r}")
        tiles = dict(self.tiles)
        tiles[axis] = size
        return replace(self, tiles=tiles)

    def reorder(self, *axes: str) -> "Schedule":
        """Set the nesting order of the outer block loops."""
        _require(sorted(axes) == sorted(self.axes),
                 f"reorder needs a permutation of {self.axes}, got {axes}")
        return replace(self, order=tuple(axes))

    def vectorize(self, axis: str, lmul: int = 1) -> "Schedule":
        """Map ``axis`` to the vector unit with register grouping ``lmul``.

        Only the statement's designated vector axis is legal: matmul's
        reduction must stay a scalar loop (vectorizing ``k`` would
        reorder the fp32 accumulation), and its row axis indexes the
        accumulator registers.
        """
        self._check_axis(axis)
        want = VECTOR_AXES[self.kind]
        if axis == REDUCTION_AXES[self.kind]:
            raise ScheduleError(
                f"cannot vectorize reduction axis {axis!r}: it would "
                f"reorder the fp32 accumulation")
        _require(axis == want,
                 f"only axis {want!r} of {self.kind} is vectorizable, "
                 f"not {axis!r}")
        _require(self.vector_axis is None, "statement is already vectorized")
        if lmul not in LMUL_CHOICES:
            raise ScheduleError(
                f"LMUL must be one of {LMUL_CHOICES}, got {lmul}")
        return replace(self, vector_axis=axis, lmul=lmul)

    def unroll(self, axis: str) -> "Schedule":
        """Fully unroll the inner tile of ``axis`` into registers.

        The axis must already be tiled with a constant (integer) size;
        for matmul this is the microkernel's ``mr`` — each unrolled
        row holds one live accumulator register group.
        """
        self._check_axis(axis)
        _require(axis != self.vector_axis, "cannot unroll the vector axis")
        _require(axis != REDUCTION_AXES[self.kind],
                 "cannot unroll the reduction axis")
        size = self.tiles.get(axis)
        _require(isinstance(size, int),
                 f"unroll({axis!r}) requires the axis to be tiled with a "
                 f"constant size first")
        _require(self.unrolled is None, "an axis is already unrolled")
        return replace(self, unrolled=axis)

    def place(self, buffer: str, where: str) -> "Schedule":
        """Choose the accumulator placement (``register`` or ``memory``)."""
        _require(buffer == "acc",
                 f"only the accumulator ('acc') is placeable, got {buffer!r}")
        _require(where in PLACEMENTS,
                 f"placement must be one of {PLACEMENTS}, got {where!r}")
        _require(self.kind == "matmul", "copy statements have no accumulator")
        return replace(self, acc=where)

    def hoist_setvl(self, hoist: bool = True) -> "Schedule":
        """Emit ``vsetvl`` once per vector strip instead of per block."""
        return replace(self, setvl_hoist=hoist)

    # -- validation ------------------------------------------------------
    @property
    def mr(self) -> int:
        """Unrolled-row count of a validated matmul schedule."""
        size = self.tiles.get("i")
        assert isinstance(size, int)
        return size

    def validate(self) -> "Schedule":
        """Check the composed schedule; returns self for chaining.

        Called by the lowering before anything is emitted.  Raises
        :class:`ScheduleError` for: a missing/misaligned vector axis,
        register-file overflow of the unrolled accumulators under the
        chosen LMUL, or a tiled reduction whose accumulators were left
        in registers.
        """
        want = VECTOR_AXES[self.kind]
        _require(self.vector_axis == want,
                 f"{self.kind} schedule must vectorize axis {want!r}")
        vt = self.tiles.get(want)
        if isinstance(vt, int):
            _require(vt % (4 * self.lmul) == 0,
                     f"misaligned vector tile: {vt} is not a multiple of "
                     f"4*LMUL = {4 * self.lmul} lanes")
        if self.kind == "matmul":
            _require(self.unrolled == "i" and isinstance(
                self.tiles.get("i"), int),
                "matmul lowering requires i tiled to a constant mr and "
                "unrolled (the accumulator rows)")
            groups = NUM_VREGS // self.lmul
            demand = self.mr + 1  # mr accumulators + one streamed operand
            _require(demand <= groups,
                     f"LMUL register overflow: mr={self.mr} needs "
                     f"{demand} register groups of LMUL={self.lmul}, but "
                     f"the file holds only {groups}")
            if "k" in self.tiles:
                _require(self.acc == "memory",
                         "a tiled reduction requires place('acc', "
                         "'memory'): accumulators cannot stay in "
                         "registers across reduction blocks")
        else:
            _require(not set(self.tiles) - {want},
                     f"copy statements only tile the vector axis {want!r}")
        return self

    # -- description -----------------------------------------------------
    def describe(self) -> dict[str, object]:
        """JSON-friendly descriptor (tuning reports, provenance)."""
        return {
            "kind": self.kind,
            "tiles": dict(self.tiles),
            "order": list(self.order),
            "vector_axis": self.vector_axis,
            "lmul": self.lmul,
            "unrolled": self.unrolled,
            "acc": self.acc,
            "setvl_hoist": self.setvl_hoist,
        }

    def label(self) -> str:
        """Compact human-readable schedule label."""
        parts = ["".join(self.order)]
        for ax in self.axes:
            if ax in self.tiles:
                parts.append(f"{ax}{self.tiles[ax]}")
        parts.append(f"m{self.lmul}")
        if self.acc != "register":
            parts.append(self.acc)
        if self.setvl_hoist:
            parts.append("hoist")
        return "-".join(parts)


def matmul_schedule() -> Schedule:
    """The untransformed matmul statement (no tiling, nothing vectorized)."""
    return Schedule(kind="matmul")


def copy_schedule() -> Schedule:
    """The untransformed copy statement."""
    return Schedule(kind="copy")


def default_matmul_schedule(mr: int = 8) -> Schedule:
    """The schedule of the shipped GEMM microkernel.

    Tile j by one vector grant, vectorize at LMUL=1, tile i by ``mr``
    and unroll it, panels outermost, ``vsetvl`` per block — what
    :func:`repro.kernels.gemm.gemm_kernel` lowers by default.
    """
    return (matmul_schedule()
            .tile("j", VL).vectorize("j", lmul=1)
            .tile("i", mr).unroll("i")
            .reorder("j", "i", "k"))


def default_direct_schedule(mr: int = 8) -> Schedule:
    """The schedule of the shipped direct 1x1 kernel.

    Same microkernel as the GEMM default, but with ``vsetvl`` hoisted
    to the pixel strip (VL is set once per strip and reused across the
    output-channel blocks) — what
    :func:`repro.kernels.direct.direct1x1_kernel` lowers by default.
    """
    return default_matmul_schedule(mr).hoist_setvl()


def default_copy_schedule() -> Schedule:
    """The schedule of the shipped im2col kernel (rows outer, x streamed).

    What :func:`repro.kernels.im2col.im2col_kernel` lowers by default.
    """
    return (copy_schedule()
            .vectorize("x", lmul=1)
            .reorder("r", "y", "x"))
