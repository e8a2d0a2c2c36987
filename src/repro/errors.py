"""Exception hierarchy for the repro package.

Every error raised by the simulator stack derives from :class:`ReproError`
so callers can catch the whole family with one handler while tests can
assert on the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration value is out of range or internally inconsistent."""


class MemoryError_(ReproError):
    """An access fell outside an allocation or the simulated address space.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`, which means something entirely different.
    """


class AllocationError(MemoryError_):
    """The simulated heap cannot satisfy an allocation request."""


class AlignmentError(MemoryError_):
    """An address or stride violates an alignment requirement."""


class VectorStateError(ReproError):
    """A vector operation was attempted with invalid machine state.

    Examples: operating before any ``vsetvl``, using an SEW the machine
    does not implement, or using a register group that violates LMUL
    alignment rules.
    """


class ScheduleError(ReproError):
    """A scheduling primitive or composed schedule is illegal.

    Raised by :mod:`repro.schedule` *before* any instruction is emitted:
    an illegal schedule (misaligned vector tile, LMUL register-group
    overflow, vectorized reduction, ...) must never lower to a driver
    program, so the machines and audit pipelines only ever see
    well-formed kernels.
    """


class RegisterSpillError(ReproError):
    """A kernel requested more live vector registers than the file holds.

    The paper (Section 3) discusses register spilling pressure caused by
    RVV's lack of vector-typed pointers; the functional simulator surfaces
    the condition as a hard error so kernels are forced to stay within the
    architectural register file, exactly like hand-written intrinsics code.
    """


class IllegalInstructionError(ReproError):
    """An intrinsic was invoked with operands the ISA forbids.

    For example ``vslideup`` with overlapping source and destination
    register groups, which RVV 1.0 reserves.
    """


class TraceValidationError(ReproError):
    """An analytical instruction-stream model disagrees with a trace."""


class ObsError(ReproError):
    """Misuse of the observability layer (:mod:`repro.obs`).

    Examples: emitting to a closed event sink, or comparing trace
    payloads whose identities make the comparison meaningless.
    Instrumentation is observation-only, so these never surface from an
    uninstrumented run — they mark bugs in tooling code, not in the
    simulation.
    """
