"""The vector primitives, each declared once.

Every instruction the machines retire comes from one of the primitives
below.  A :class:`Prim` states everything about it that is not NumPy
semantics: the default mnemonic, the :class:`~repro.isa.OpClass`, and
the role of each positional argument.  The memory pattern (unit,
strided or indexed; load or store) follows from the opclass.

A machine method named after a table entry and decorated with
:func:`retires` holds only the primitive's semantics.  The decorator
retires one instruction into the machine's
:class:`~repro.rvv.tracer.Tracer` after the semantics ran.  The
concrete machines (:mod:`repro.rvv.machine`, :mod:`repro.rvv.proposed`,
:mod:`repro.sve`) and the data-free abstract machines of
:mod:`repro.analysis.symbolic` decorate their own versions of the same
names, so both record into the same signatures.

Argument roles:

- ``vd``, ``vs``, ``vidx``, ``imm`` — the operands a listing shows;
  they are part of the instruction's signature.  A ``vs`` argument may
  be a tuple of registers.  The ``imm`` of a strided access is its
  byte stride.
- ``op`` — selects the arithmetic operation; it is substituted into
  the mnemonic (``vf{op}.vv``) and is part of the signature.
- ``base`` — the base address of a memory access, kept per occurrence.
- ``data`` — a value the listing does not show (a scalar operand, the
  start of an index sequence, the rows of a transpose).

An indexed access's semantics return the byte offsets it used (an
array, or the abstract content of the index register); they are kept
per occurrence with the base.

``load_index_u32`` retires as the flavor's unit-stride load of the
staged index array (``vle32.v`` / ``ld1w``), and ``scalar_ops(n)`` as
``n`` of the ``_scalar`` primitive.
"""

from __future__ import annotations

from functools import wraps
from operator import itemgetter
from typing import Any, Callable

from repro.isa import IS_LOAD, MEM_KIND, OpClass
from repro.rvv.tracer import Operands

#: Roles that are part of an instruction's signature.
_KEY_ROLES = frozenset({"vd", "vs", "vidx", "imm", "op"})


class Prim:
    """One primitive: mnemonic, opclass, argument roles (see module doc).

    ``mnemonic`` is None for scalar bookkeeping, which carries no
    operands.  Instances hash by identity: they are signature keys.
    """

    __slots__ = ("name", "mnemonic", "opclass", "roles", "merges", "eew",
                 "kind", "is_load", "key")

    def __init__(self, name: str, mnemonic: str | None, opclass: OpClass,
                 roles: tuple[str, ...] = (), *, merges: bool = False) -> None:
        self.name = name
        self.mnemonic = mnemonic
        self.opclass = opclass
        self.roles = roles
        self.merges = merges
        self.eew = 64 if opclass is OpClass.SCALAR else 32
        self.kind = MEM_KIND.get(opclass)
        self.is_load = opclass in IS_LOAD
        pos = [i for i, r in enumerate(roles) if r in _KEY_ROLES]
        #: The signature part of an argument tuple.
        self.key: Callable[[tuple], Any] = (
            itemgetter(*pos) if pos else _no_key)

    def operands(self, mn: str | None, args: tuple) -> Operands | None:
        """The :class:`Operands` of a call with ``args``."""
        if self.mnemonic is None:
            return None
        vd = vidx = imm = op = None
        vs: tuple = ()
        for role, a in zip(self.roles, args):
            if role == "vd":
                vd = a
            elif role == "vs":
                vs += a if isinstance(a, tuple) else (a,)
            elif role == "vidx":
                vidx = a
            elif role == "imm":
                imm = a
            elif role == "op":
                op = a
        return Operands(mn or self.mnemonic.format(op=op), vd, vs, vidx,
                        imm, self.merges)

    def __repr__(self) -> str:
        return f"Prim({self.name!r})"


def _no_key(args: tuple) -> tuple:
    return ()


def _table(*prims: Prim) -> dict[str, Prim]:
    return {p.name: p for p in prims}


_O = OpClass

#: Every primitive, by the name of the machine method that implements it.
PRIMS: dict[str, Prim] = _table(
    # Configuration (retired through Tracer.configure).
    Prim("_set_vl", "vsetvli", _O.VSETVL),
    Prim("whilelt", "whilelt", _O.VMASK),
    # Memory.
    Prim("_ld_unit", "vle32.v", _O.VLOAD_UNIT, ("vd", "base")),
    Prim("_st_unit", "vse32.v", _O.VSTORE_UNIT, ("vs", "base")),
    Prim("_ld_strided", "vlse32.v", _O.VLOAD_STRIDED, ("vd", "base", "imm")),
    Prim("_st_strided", "vsse32.v", _O.VSTORE_STRIDED, ("vs", "base", "imm")),
    Prim("_ld_indexed", "vluxei32.v", _O.VLOAD_INDEXED, ("vd", "base", "vidx")),
    Prim("_st_indexed", "vsuxei32.v", _O.VSTORE_INDEXED, ("vs", "base", "vidx")),
    # Arithmetic.
    Prim("_fma", "vfmacc.vv", _O.VFMA, ("vd", "vs", "vs"), merges=True),
    Prim("_fma_f", "vfmacc.vf", _O.VFMA, ("vd", "data", "vs"), merges=True),
    Prim("_nfms_f", "vfnmsac.vf", _O.VFMA, ("vd", "data", "vs"), merges=True),
    Prim("_arith", "vf{op}.vv", _O.VFARITH, ("op", "vd", "vs", "vs")),
    Prim("_arith_f", "vf{op}.vf", _O.VFARITH, ("op", "vd", "vs", "data")),
    Prim("_splat_f", "vfmv.v.f", _O.VMOVE, ("vd", "data")),
    Prim("_mov", "vmv.v.v", _O.VMOVE, ("vd", "vs")),
    Prim("_iota", "vid.v", _O.VMOVE, ("vd",)),
    Prim("_iadd_x", "vadd.vx", _O.VIARITH, ("vd", "vs", "imm")),
    Prim("_imul_x", "vmul.vx", _O.VIARITH, ("vd", "vs", "imm")),
    Prim("_iand_x", "vand.vx", _O.VIARITH, ("vd", "vs", "imm")),
    Prim("_redsum", "vfredusum.vs", _O.VREDUCE, ("vs",)),
    # Register movement.
    Prim("_slideup", "vslideup.vx", _O.VSLIDE, ("vd", "vs", "imm"), merges=True),
    Prim("_slidedown", "vslidedown.vx", _O.VSLIDE, ("vd", "vs", "imm")),
    Prim("_gather_reg", "vrgather.vv", _O.VPERMUTE, ("vd", "vs", "vidx")),
    Prim("_scalar", None, _O.SCALAR),
    # The proposed RVV extensions and SVE's INDEX.
    Prim("vrep4_vi", "vrep4.vi", _O.VPERMUTE, ("vd", "vs", "imm")),
    Prim("_vtrn4_row", "vtrn4.vv", _O.VPERMUTE, ("vd", "vs", "data")),
    Prim("index_u32", "index", _O.VIARITH, ("vd", "data", "imm")),
)


def retires(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Retire one instruction of primitive ``fn.__name__`` per call.

    The wrapped method takes the primitive's arguments plus an optional
    keyword ``mn`` that overrides the default mnemonic (SVE spellings).
    """
    prim = PRIMS[fn.__name__]
    key = prim.key
    if prim.kind is None:
        @wraps(fn)
        def plain(machine: Any, *args: Any, mn: str | None = None) -> Any:
            out = fn(machine, *args)
            machine.tracer.retire(prim, mn, key(args), args)
            return out
        return plain
    b = prim.roles.index("base")
    if prim.kind == "indexed":
        @wraps(fn)
        def indexed(machine: Any, *args: Any, mn: str | None = None) -> None:
            offsets = fn(machine, *args)
            machine.tracer.retire(prim, mn, key(args), args, (args[b], offsets))
        return indexed

    @wraps(fn)
    def access(machine: Any, *args: Any, mn: str | None = None) -> None:
        fn(machine, *args)
        machine.tracer.retire(prim, mn, key(args), args, args[b])
    return access
