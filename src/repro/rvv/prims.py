"""The vector primitives, each declared once.

Every instruction the machines retire comes from one of the primitives
below.  A :class:`Prim` states everything about it that is not NumPy
semantics: the default mnemonic, the :class:`~repro.isa.OpClass`, and
the role of each positional argument.  The memory pattern (unit,
strided or indexed; load or store) follows from the opclass.

A machine method named after a table entry holds only the primitive's
semantics, in one of two forms:

- The concrete machines (:mod:`repro.rvv.machine`,
  :mod:`repro.rvv.proposed`, :mod:`repro.sve`) decorate it with
  :func:`binds`, which makes the signature the unit of execution.  A
  kernel's dynamic stream repeats a few hundred signatures a million
  times, so each call first looks up the instruction's
  :class:`~repro.rvv.tracer.Sig` in the machine's
  :class:`~repro.rvv.tracer.Tracer`.  Only the first occurrence of a
  signature on a machine, under one configuration, runs the method: a
  *binder* that makes every check the signature fixes (configured
  state, register groups, slide overlap) and slices the register
  operands to ``vl`` once.  It returns a closure, which every
  occurrence runs on its per-occurrence argument (checking memory
  bounds and alignment) before the instruction retires.
- The data-free abstract machines of :mod:`repro.analysis.symbolic`,
  whose signatures may hold SymInts, decorate theirs with
  :func:`retires`: the semantics run per call, then the instruction
  retires.

Both record into the same signatures, and an instruction that raises
records nothing.

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

``base`` and ``data`` are the per-occurrence arguments: a bound
closure takes the one its primitive has, if any.

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
    """Run and retire one instruction of primitive ``fn.__name__`` per
    call: ``fn`` holds the per-call semantics (the abstract machines).

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


def binds(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Run and retire one instruction of primitive ``fn.__name__`` per
    call: ``fn`` is the primitive's *binder* (the concrete machines).

    ``fn`` takes the signature arguments (the ``vd``/``vs``/``vidx``/
    ``imm``/``op`` roles, in order), makes every check they fix and
    returns the closure that executes one occurrence from its remaining
    argument (the ``base`` or ``data`` role; a primitive has at most
    one).  The wrapped method takes all the arguments plus ``mn``, like
    a :func:`retires` one.

    Each call looks its instruction up under the key
    :meth:`Tracer.retire` interns it by (primitive, mnemonic, signature
    arguments, the tracer's active configuration signature), in the
    machine's bindings for its own active configuration
    (``machine._binds``).  A hit holds the closure and the
    :class:`~repro.rvv.tracer.Sig`; a miss binds, runs and retires the
    occurrence through :meth:`Tracer.retire`, then caches both.  A
    binder that raises caches nothing, and an occurrence that raises
    records nothing.  A tracer's configuration signatures are its own
    and a reset makes new ones, so after a reset or on a newly assigned
    tracer every signature misses and binds again (the machine drops the
    old bindings at its next configuration); before a tracer's first
    configuration nothing is cached.
    """
    prim = PRIMS[fn.__name__]
    occ = [i for i, r in enumerate(prim.roles) if r not in _KEY_ROLES]
    if len(occ) > 1:
        raise TypeError(f"{prim}: a bound primitive takes at most one "
                        "per-occurrence argument")
    p = occ[0] if occ else None
    # Without a per-occurrence argument the arguments are the key.
    key = prim.key if p is not None else tuple
    kind = prim.kind
    indexed = kind == "indexed"

    def first(machine: Any, tr: Any, k: tuple, args: tuple) -> Any:
        """Bind, run and retire an occurrence that missed."""
        run = fn(machine, *(a for i, a in enumerate(args) if i != p))
        out = run() if p is None else run(args[p])
        item = (None if kind is None else (args[p], out) if indexed
                else args[p])
        sig = tr.retire(prim, k[1], k[2], args, item)
        if k[3] is not None:
            machine._binds[k] = (run, sig)
        return out

    @wraps(fn)
    def call(machine: Any, *args: Any, mn: str | None = None) -> Any:
        tr = machine.tracer
        k = (prim, mn, key(args), tr._cfg)
        hit = machine._binds.get(k)
        if hit is None:
            return first(machine, tr, k, args)
        run, sig = hit
        out = run() if p is None else run(args[p])
        # Tracer.retire's occurrence bookkeeping, inlined: this runs
        # once per instruction.
        sig.count += 1
        tr._n += 1
        if tr.capture:
            tr.sig_ids.append(sig.sid)
            if sig.payload is not None:
                sig.payload.append((args[p], out) if indexed else args[p])
        return out
    call.binder = fn  # type: ignore[attr-defined]
    return call
