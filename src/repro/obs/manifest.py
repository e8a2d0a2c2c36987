"""Run manifests: the identity block written next to every trace.

A manifest pins what produced a trace directory — the command, the
simulated configuration, the backend, the git revision of the code,
interpreter/platform versions, and the RNG seed state — so a JSONL
event file found weeks later can be tied back to an exact setup.  It is
the observability twin of the sweep checkpoint manifest (which pins
*result* identity for resume); this one pins *provenance* and is never
compared, only recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping

#: Manifest schema version.
MANIFEST_SCHEMA = 1

#: File name used by the CLI's ``--trace`` directories.
RUN_MANIFEST_NAME = "manifest.json"


@lru_cache(maxsize=8)
def git_rev(cwd: str | Path | None = None) -> str | None:
    """The current git revision, or None outside a checkout (or when
    git itself is unavailable) — provenance must never fail a run.

    Cached per process: the serve layer stamps a manifest onto every
    query, and a subprocess per query would dominate the hot
    (store-bound) path."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


@lru_cache(maxsize=4)
def _state_digest(state: tuple) -> str:
    # Keyed by the state itself: a served process stamps a manifest on
    # every query, and the repr of the 625-word state costs more than
    # the rest of the manifest together.
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


def seed_state(seed: int | None = None) -> dict:
    """The RNG state block: the explicit seed (when the command took
    one) plus a digest of the stdlib RNG state and ``PYTHONHASHSEED``,
    enough to notice two "identical" runs that actually diverged."""
    return {
        "seed": seed,
        "random_state_digest": _state_digest(random.getstate()),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def run_manifest(
    command: str,
    config: Mapping[str, Any] | None = None,
    backend: str | None = None,
    seed: int | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict:
    """Assemble the manifest for one run.

    Args:
        command: the logical command ("profile", "sweep", ...).
        config: the simulated system configuration as a dict
            (``dataclasses.asdict(SystemConfig)``).
        backend: sweep backend when applicable.
        seed: explicit RNG seed when the command took one.
        extra: command-specific fields merged in verbatim.
    """
    try:
        import numpy
        numpy_version: str | None = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep
        numpy_version = None
    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "tool": "repro",
        "command": command,
        "argv": list(sys.argv),
        "started_unix": time.time(),
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy_version,
        "seed_state": seed_state(seed),
        "backend": backend,
        "config": dict(config) if config is not None else None,
    }
    if extra:
        manifest.update(dict(extra))
    return manifest


def query_manifest(
    query_id: str,
    identity: Mapping[str, Any],
    config: Mapping[str, Any] | None = None,
    backend: str | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict:
    """Assemble the manifest for one served co-design query.

    The serve twin of :func:`run_manifest`: in addition to the usual
    provenance block it pins the query's *content address* — the
    ``identity`` mapping (network hash, policy, grid) that keys the
    result store — so a streamed result can always be tied back to the
    exact cache entries that answered it.
    """
    merged: dict[str, Any] = {"query_id": query_id,
                              "identity": dict(identity)}
    if extra:
        merged.update(dict(extra))
    return run_manifest(
        "serve-query", config=config, backend=backend, extra=merged,
    )


def write_manifest(directory: str | Path, manifest: Mapping[str, Any]) -> Path:
    """Write ``manifest.json`` into a trace directory; returns its path."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    path = d / RUN_MANIFEST_NAME
    path.write_text(json.dumps(dict(manifest), indent=2) + "\n",
                    encoding="utf-8")
    return path
