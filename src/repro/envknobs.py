"""Environment-knob parsing with a loud invalid-value policy.

Several runtime knobs are read from the environment
(``REPRO_SWEEP_WORKERS``, ``REPRO_METRICS_SAMPLE_CAP``,
``REPRO_BENCH_BASELINE``, ...).  Parsed ad hoc, a bad value is easily
repaired in silence: a garbage ``REPRO_SWEEP_WORKERS=4x`` quietly falls
back to the default, a negative one clamps without a word, and a
mistyped knob looks exactly like an applied one.  This module
centralizes the policy:

- unset or empty/whitespace-only values mean "use the default" and stay
  silent (an empty export is how shells unset a knob);
- unparsable values fall back to the default **with a**
  :class:`RuntimeWarning` naming the variable and the bad value;
- out-of-range values clamp to the nearest bound, also with a warning.

A bad knob therefore never aborts a run (these are tuning knobs, not
configuration), but it is never silent either.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path


def env_int(
    name: str,
    default: int,
    minimum: int | None = None,
) -> int:
    """Parse an integer knob from the environment.

    Args:
        name: environment variable name.
        default: value used when the variable is unset, empty, or
            unparsable (the latter with a :class:`RuntimeWarning`).
        minimum: lower bound; values below it clamp to it, loudly.

    Returns:
        The parsed (and possibly clamped) value.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        warnings.warn(
            f"{name}={raw!r} is not an integer; using the default "
            f"({default})",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    if minimum is not None and value < minimum:
        warnings.warn(
            f"{name}={raw!r} is below the minimum ({minimum}); "
            f"clamping to {minimum}",
            RuntimeWarning,
            stacklevel=2,
        )
        return minimum
    return value


def env_float(
    name: str,
    default: float,
    minimum: float | None = None,
) -> float:
    """Parse a float knob from the environment.

    Same policy as :func:`env_int`: unset/empty is silently the
    default, garbage is the default with a :class:`RuntimeWarning`,
    below-minimum clamps loudly.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        warnings.warn(
            f"{name}={raw!r} is not a number; using the default "
            f"({default})",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    if minimum is not None and value < minimum:
        warnings.warn(
            f"{name}={raw!r} is below the minimum ({minimum}); "
            f"clamping to {minimum}",
            RuntimeWarning,
            stacklevel=2,
        )
        return minimum
    return value


def env_dir(name: str) -> str | None:
    """Parse a directory-path knob from the environment.

    Unset or empty values mean "feature off" (returns ``None``).  A
    path that already exists but is not a directory cannot possibly be
    what the user meant — that returns ``None`` with a
    :class:`RuntimeWarning` naming the variable and the path, instead
    of letting a later ``mkdir``/``open`` fail far from the typo.  A
    path that does not exist yet is fine: consumers create their
    directories on first use.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    path = raw.strip()
    if Path(path).exists() and not Path(path).is_dir():
        warnings.warn(
            f"{name}={raw!r} exists but is not a directory; ignoring it",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return path
