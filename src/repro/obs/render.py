"""Human- and machine-readable views of traces and counters.

``repro profile`` prints :func:`render_trace_text` (an indented span
tree with wall time and the headline counters) or, with ``--json``,
:func:`trace_payload` — the span tree plus its manifest in one
document.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from repro.obs.trace import Span

#: Schema version of the trace payload (the ``--json`` document and
#: the ``trace.json`` written into ``--trace`` directories).  Loaders
#: preserve unknown keys, so bumps are additive.
TRACE_PAYLOAD_SCHEMA = 1

#: Counters shown inline per span in the text rendering (the rest are
#: in the JSON form); chosen to match the paper's per-phase analysis —
#: where the cycles go and what memory traffic drove them.
_HEADLINE = ("instrs", "flops", "dram_bytes")

#: Spans carry only primitive cycle components (see
#: :func:`repro.obs.trace.counters_from_stats`); total cycles is
#: derived here for display.
_CYCLE_PARTS = ("issue_cycles", "l2_stall_cycles", "dram_stall_cycles")

#: The span attribute naming the clock the cycle counters ticked under
#: (set by the instrumented simulation entry points).
FREQ_ATTR = "freq_ghz"


def span_frequency(
    span: Span, ancestors: Sequence[Span] = ()
) -> float | None:
    """The clock (GHz) governing a span's cycle counters.

    Looked up on the span itself first, then outward along its root
    path — the instrumentation sets it once on the simulation root, so
    layer spans inherit it.  ``None`` when no span on the path declares
    a clock: cycle counters without a clock cannot be converted to time
    and should not be presented as if a default clock applied.
    """
    if FREQ_ATTR in span.attrs:
        return float(span.attrs[FREQ_ATTR])
    for anc in reversed(list(ancestors)):
        if FREQ_ATTR in anc.attrs:
            return float(anc.attrs[FREQ_ATTR])
    return None


def span_cycles(
    span: Span, ancestors: Sequence[Span] = ()
) -> float | None:
    """Total cycles of a span, derived from its components.

    ``None`` when the span carries no cycle counters — or when it does
    but no span on its root path declares a ``freq_ghz`` attribute
    (``ancestors``, outermost first).  A cycle count is only meaningful
    relative to a known clock; silently assuming the default clock
    would mislabel traces recorded on a retuned configuration, so such
    spans render as ``—`` instead.
    """
    if not any(p in span.counters for p in _CYCLE_PARTS):
        return None
    if span_frequency(span, ancestors) is None:
        return None
    return sum(span.counters.get(p, 0) for p in _CYCLE_PARTS)


def _fmt_count(v: float) -> str:
    """Compact engineering format for large counters."""
    if v != int(v):
        return f"{v:.3g}"
    v = int(v)
    if abs(v) >= 10_000_000:
        return f"{v / 1e6:.1f}M"
    if abs(v) >= 10_000:
        return f"{v / 1e3:.1f}k"
    return str(v)


def render_trace_text(
    span: Span, indent: int = 0, ancestors: Sequence[Span] = ()
) -> str:
    """Indented tree: one line per span with wall time and counters.

    A span with cycle counters but no clock anywhere on its root path
    renders ``cycles=—`` rather than a number derived from an assumed
    default frequency.
    """
    pad = "  " * indent
    parts = []
    cycles = span_cycles(span, ancestors)
    if cycles is not None:
        parts.append(f"cycles={_fmt_count(cycles)}")
    elif any(p in span.counters for p in _CYCLE_PARTS):
        parts.append("cycles=—")
    parts.extend(
        f"{k}={_fmt_count(span.counters[k])}"
        for k in _HEADLINE if k in span.counters
    )
    counters = "  ".join(parts)
    attrs = "".join(
        f" {k}={v}" for k, v in span.attrs.items() if k != "label"
    )
    label = span.attrs.get("label", span.name)
    line = f"{pad}{label}{attrs}  {span.wall_seconds * 1e3:.2f} ms"
    if counters:
        line += f"  [{counters}]"
    lines = [line]
    path = (*ancestors, span)
    lines.extend(
        render_trace_text(c, indent + 1, path) for c in span.children
    )
    return "\n".join(lines)


def trace_payload(span: Span, manifest: Mapping | None = None) -> dict:
    """The ``--json`` document: manifest (if any) plus the span tree.

    One self-identifying file: the embedded manifest uses the same
    schema as the ``manifest.json`` written into ``--trace``
    directories, so a single ``repro profile --json`` capture can be
    tied back to an exact setup without its directory.
    """
    payload: dict = {
        "schema": TRACE_PAYLOAD_SCHEMA,
        "trace": span.to_dict(),
    }
    if manifest is not None:
        payload["manifest"] = dict(manifest)
    return payload


def render_trace_json(span: Span, manifest: Mapping | None = None) -> str:
    return json.dumps(trace_payload(span, manifest), indent=2)
