"""Opcode classification for instruction accounting.

The tracer on the functional simulator and the analytical stream models
both describe dynamic instructions by *opcode class* rather than by exact
mnemonic: the timing model (like the gem5 fork the paper uses, which
"models a constant latency for all the vector instructions") assigns
costs at this granularity, and the paper's findings are phrased at this
granularity too (indexed loads vs unit-stride loads vs slides).

Every intrinsic of :class:`repro.rvv.RvvMachine` and every SVE operation
of :class:`repro.sve.SveMachine` maps to exactly one class.
"""

from __future__ import annotations

from enum import Enum, unique


@unique
class OpClass(str, Enum):
    """Dynamic instruction classes.

    The string values appear in reports, so they are short and stable.
    """

    # Configuration.
    VSETVL = "vsetvl"

    # Vector memory.
    VLOAD_UNIT = "vload_unit"
    VLOAD_STRIDED = "vload_strided"
    VLOAD_INDEXED = "vload_indexed"  # gather
    VSTORE_UNIT = "vstore_unit"
    VSTORE_STRIDED = "vstore_strided"
    VSTORE_INDEXED = "vstore_indexed"  # scatter

    # Vector arithmetic.
    VFMA = "vfma"  # fused multiply-add family (vfmacc/vfmadd/...)
    VFARITH = "vfarith"  # single-op fp arithmetic (vfadd/vfsub/vfmul/...)
    VIARITH = "viarith"  # integer vector arithmetic (index generation)
    VREDUCE = "vreduce"  # reductions (vfredusum/...)

    # Vector data movement within registers.
    VSLIDE = "vslide"  # vslideup/vslidedown
    VPERMUTE = "vpermute"  # vrgather / SVE TBL
    VMOVE = "vmove"  # splats, register copies, vid

    # Mask manipulation.
    VMASK = "vmask"

    # Scalar bookkeeping (address arithmetic, loop control, branches).
    SCALAR = "scalar"


#: Access pattern of each class that references memory.
MEM_KIND = {
    OpClass.VLOAD_UNIT: "unit",
    OpClass.VLOAD_STRIDED: "strided",
    OpClass.VLOAD_INDEXED: "indexed",
    OpClass.VSTORE_UNIT: "unit",
    OpClass.VSTORE_STRIDED: "strided",
    OpClass.VSTORE_INDEXED: "indexed",
}

#: Classes that reference memory.
IS_MEM = frozenset(MEM_KIND)

#: Classes that read memory.
IS_LOAD = frozenset(
    {OpClass.VLOAD_UNIT, OpClass.VLOAD_STRIDED, OpClass.VLOAD_INDEXED}
)

#: Classes that write memory.
IS_STORE = frozenset(
    {OpClass.VSTORE_UNIT, OpClass.VSTORE_STRIDED, OpClass.VSTORE_INDEXED}
)

#: Classes that are vector (as opposed to scalar) instructions.
IS_VECTOR = frozenset(c for c in OpClass if c is not OpClass.SCALAR)

#: Floating-point operations contributed per *active element* by each class.
#: Used to compute achieved GFLOPS and roofline arithmetic intensity.
FLOPS_PER_ELEM = {
    OpClass.VFMA: 2,
    OpClass.VFARITH: 1,
    OpClass.VREDUCE: 1,
}
