"""Versioned performance baselines (the regression observatory).

``repro bench record`` runs a small co-design sweep and freezes the
result into ``BENCH_<rev>.json`` — one file per git revision, committed
alongside the code it measured, so the repo carries its own performance
trajectory.  ``repro bench compare`` re-runs the same sweep and diffs
against a stored baseline, exiting non-zero on regression.

Two kinds of number, two kinds of comparison:

- **Simulated cycles are exact.**  The analytical simulator is
  deterministic; any cycle delta at all is a modeling change and must
  be acknowledged by recording a new baseline, never absorbed by a
  tolerance.
- **Wall time is noisy.**  Each baseline stores the mean and standard
  deviation over repeated runs, and the comparison tolerance is built
  from that recorded noise (``max(abs_floor, sigmas·std,
  rel_floor·mean)``) — generous by design, because the observatory's
  wall check exists to catch "the sweep got 5× slower", not scheduler
  jitter on a loaded CI box.

This module is the store and the comparison; it is simulator-free
(``obs`` layering).  The glue that runs sweeps and fills a
:class:`BenchRecorder` lives in the CLI and
:mod:`repro.codesign.executor`.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ObsError

BASELINE_SCHEMA = 1
BENCH_FILE_PREFIX = "BENCH_"
#: Default directory (relative to the repo root) for baseline files.
DEFAULT_BASELINE_DIR = "benchmarks/baselines"

_REV_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def bench_key(network: str, vlen_bits: int, l2_mb: float) -> str:
    """Canonical bench name of one sweep point: ``vgg16/512b/1.0MB``."""
    return f"{network}/{vlen_bits}b/{l2_mb:g}MB"


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def _std(xs: Sequence[float]) -> float:
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


class BenchRecorder:
    """Accumulates one run's bench measurements before freezing.

    ``add`` is called once per (bench, repeat): cycles must agree
    across repeats — the simulator is deterministic, so a cycle count
    that moves between repeats of the *same* code is a bug worth
    stopping the recording for — while wall times accumulate into the
    noise estimate.
    """

    def __init__(self) -> None:
        self._cycles: dict[str, float] = {}
        self._walls: dict[str, list[float]] = {}

    def add(self, name: str, cycles: float,
            wall_seconds: float | None = None) -> None:
        known = self._cycles.get(name)
        if known is not None and known != cycles:
            raise ObsError(
                f"bench {name!r} is nondeterministic: cycles {known} on "
                f"one repeat, {cycles} on another"
            )
        self._cycles[name] = cycles
        if wall_seconds is not None:
            self._walls.setdefault(name, []).append(wall_seconds)

    def __len__(self) -> int:
        return len(self._cycles)

    def benches(self) -> dict[str, dict[str, Any]]:
        """The ``benches`` payload section."""
        out: dict[str, dict[str, Any]] = {}
        for name in sorted(self._cycles):
            walls = self._walls.get(name, [])
            out[name] = {
                "cycles": self._cycles[name],
                "wall_mean": _mean(walls) if walls else None,
                "wall_std": _std(walls),
                "runs": len(walls),
            }
        return out


def baseline_payload(
    rev: str,
    recorder: BenchRecorder,
    config: Mapping[str, Any],
    manifest: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble one ``BENCH_<rev>.json`` payload."""
    if not len(recorder):
        raise ObsError("refusing to record an empty baseline")
    return {
        "schema": BASELINE_SCHEMA,
        "rev": rev,
        "config": dict(config),
        "manifest": dict(manifest) if manifest is not None else None,
        "benches": recorder.benches(),
    }


# ----------------------------------------------------------------------
# The store: BENCH_<rev>.json files in one directory.
# ----------------------------------------------------------------------
class BaselineStore:
    """Directory of ``BENCH_<rev>.json`` baseline files."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, rev: str) -> Path:
        if not _REV_RE.match(rev):
            raise ObsError(f"malformed baseline revision {rev!r}")
        return self.root / f"{BENCH_FILE_PREFIX}{rev}.json"

    def revs(self) -> list[str]:
        """Known revisions, oldest first by file modification time."""
        if not self.root.is_dir():
            return []
        files = sorted(
            self.root.glob(f"{BENCH_FILE_PREFIX}*.json"),
            key=lambda p: (p.stat().st_mtime, p.name),
        )
        return [p.stem[len(BENCH_FILE_PREFIX):] for p in files]

    def save(self, payload: Mapping[str, Any]) -> Path:
        path = self.path_for(str(payload["rev"]))
        self.root.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    def load(self, rev: str) -> dict[str, Any]:
        path = self.path_for(rev)
        if not path.is_file():
            known = ", ".join(self.revs()) or "none recorded"
            raise ObsError(
                f"no baseline for revision {rev!r} in {self.root} "
                f"(known: {known})"
            )
        payload = json.loads(path.read_text(encoding="utf-8"))
        schema = payload.get("schema")
        if schema != BASELINE_SCHEMA:
            raise ObsError(
                f"baseline {path} has schema {schema!r}; this code "
                f"reads schema {BASELINE_SCHEMA}"
            )
        return payload

    def resolve(self, against: str | None = None) -> dict[str, Any]:
        """Load ``against``, or the most recently recorded baseline.

        ``against`` may also be an unambiguous prefix of a recorded
        revision (an abbreviated git hash)."""
        if against is not None:
            if self.path_for(against).is_file():
                return self.load(against)
            matches = [r for r in self.revs() if r.startswith(against)]
            if len(matches) > 1:
                raise ObsError(
                    f"baseline revision {against!r} is ambiguous "
                    f"(matches: {', '.join(matches)})"
                )
            return self.load(matches[0] if matches else against)
        revs = self.revs()
        if not revs:
            raise ObsError(
                f"no baselines recorded in {self.root}; run "
                f"`repro bench record` first"
            )
        return self.load(revs[-1])


# ----------------------------------------------------------------------
# Comparison.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Regression:
    """One bench that moved outside its comparison contract."""

    bench: str
    kind: str  # "cycles" | "wall" | "missing"
    detail: str
    base: float | None = None
    current: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "bench": self.bench, "kind": self.kind,
            "detail": self.detail, "base": self.base,
            "current": self.current,
        }


@dataclass(frozen=True)
class WallDelta:
    """One compared bench's mean wall time, baseline -> this run."""

    bench: str
    base: float
    current: float

    @property
    def change(self) -> float:
        """Relative change (negative: faster)."""
        return (self.current - self.base) / self.base if self.base else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {"bench": self.bench, "base": self.base,
                "current": self.current, "change": self.change}


@dataclass(frozen=True)
class BenchComparison:
    """Outcome of comparing a run against a stored baseline.

    ``walls`` holds the wall-time delta of every compared bench that
    both runs timed, whether or not wall time was gated."""

    base_rev: str
    current_rev: str | None
    compared: int
    regressions: tuple[Regression, ...]
    added: tuple[str, ...] = ()
    notes: tuple[str, ...] = field(default=())
    walls: tuple[WallDelta, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict[str, Any]:
        return {
            "base_rev": self.base_rev,
            "current_rev": self.current_rev,
            "compared": self.compared,
            "ok": self.ok,
            "regressions": [r.to_dict() for r in self.regressions],
            "added": list(self.added),
            "notes": list(self.notes),
            "walls": [w.to_dict() for w in self.walls],
        }


def wall_tolerance(
    mean: float,
    std: float,
    sigmas: float = 3.0,
    rel_floor: float = 0.5,
    abs_floor: float = 0.1,
) -> float:
    """Allowed wall-time increase over the baseline mean (seconds)."""
    return max(abs_floor, sigmas * std, rel_floor * mean)


def compare_payloads(
    base: Mapping[str, Any],
    current: Mapping[str, Any],
    sigmas: float = 3.0,
    rel_floor: float = 0.5,
    abs_floor: float = 0.1,
    walls: bool = True,
) -> BenchComparison:
    """Compare two baseline payloads (base vs the fresh run).

    Pure function of the two payloads, so the comparison policy is
    testable without running any sweep: cycles exact, wall within
    :func:`wall_tolerance` of the baseline mean, and a bench present in
    the baseline but absent from the current run is itself a
    regression (coverage loss).  Benches only the current run has are
    reported as ``added`` but do not fail the comparison.

    ``walls=False`` skips the wall-time comparison entirely (cycles
    only) — for loaded or shared machines where wall noise exceeds any
    sane tolerance; the skip is recorded in the notes, never silent.
    Either way, every compared bench both payloads timed reports its
    baseline -> current mean wall time in ``walls``.
    """
    base_benches: Mapping[str, Any] = base.get("benches", {})
    cur_benches: Mapping[str, Any] = current.get("benches", {})
    regressions: list[Regression] = []
    notes: list[str] = []
    deltas: list[WallDelta] = []
    compared = 0
    for name in sorted(base_benches):
        b = base_benches[name]
        c = cur_benches.get(name)
        if c is None:
            regressions.append(Regression(
                bench=name, kind="missing",
                detail="present in baseline, absent from this run",
            ))
            continue
        compared += 1
        if c["cycles"] != b["cycles"]:
            rel = (
                (c["cycles"] - b["cycles"]) / b["cycles"]
                if b["cycles"] else float("inf")
            )
            regressions.append(Regression(
                bench=name, kind="cycles",
                detail=(
                    f"simulated cycles changed by {rel:+.4%} "
                    f"({b['cycles']:.0f} -> {c['cycles']:.0f}); cycle "
                    f"counts are exact — record a new baseline if this "
                    f"change is intended"
                ),
                base=float(b["cycles"]), current=float(c["cycles"]),
            ))
        b_wall, c_wall = b.get("wall_mean"), c.get("wall_mean")
        if b_wall is not None and c_wall is not None:
            deltas.append(WallDelta(name, float(b_wall), float(c_wall)))
        if not walls:
            continue
        if b_wall is None or c_wall is None:
            notes.append(f"{name}: wall time not compared (not recorded)")
            continue
        tol = wall_tolerance(
            b_wall, float(b.get("wall_std") or 0.0),
            sigmas=sigmas, rel_floor=rel_floor, abs_floor=abs_floor,
        )
        if c_wall > b_wall + tol:
            regressions.append(Regression(
                bench=name, kind="wall",
                detail=(
                    f"wall time {c_wall:.3f}s exceeds baseline "
                    f"{b_wall:.3f}s + tolerance {tol:.3f}s"
                ),
                base=b_wall, current=c_wall,
            ))
    if not walls:
        notes.append("wall times not compared (cycles only)")
    added = tuple(sorted(set(cur_benches) - set(base_benches)))
    return BenchComparison(
        base_rev=str(base.get("rev")),
        current_rev=(
            None if current.get("rev") is None else str(current["rev"])
        ),
        compared=compared,
        regressions=tuple(regressions),
        added=added,
        notes=tuple(notes),
        walls=tuple(deltas),
    )


def render_comparison(cmp: BenchComparison) -> str:
    head = (
        f"bench compare: {cmp.compared} bench(es) vs baseline "
        f"{cmp.base_rev}"
        + (f" (current {cmp.current_rev})" if cmp.current_rev else "")
    )
    rows = [head]
    rows.extend(f"  wall {w.bench}: {w.base:.4f}s -> {w.current:.4f}s "
                f"({w.change:+.1%})" for w in cmp.walls)
    for r in cmp.regressions:
        rows.append(f"  REGRESSION [{r.kind}] {r.bench}: {r.detail}")
    for name in cmp.added:
        rows.append(f"  added (not in baseline): {name}")
    rows.extend(f"  note: {n}" for n in cmp.notes)
    rows.append("OK" if cmp.ok
                else f"FAILED: {len(cmp.regressions)} regression(s)")
    return "\n".join(rows)
