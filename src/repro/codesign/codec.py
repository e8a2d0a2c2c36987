"""The checkpoint point schema and the stored form of a grid point: its
canonical bytes, cut at the label slots.

A sweep checkpoint file and a store entry are one point in the
checkpoint point schema (``{"version", "backend", "vlen", "l2_mb",
"result"}``).  The serving store
keeps it as a :class:`StoredPoint`: the text ``json.dumps`` writes for
it, cut at its *label slots* — the network name, the name part of each
layer's ``<layer name>[<algorithm>]`` label, and the total's label.
Labels are presentation, not identity (the content address leaves them
out), so a point computed for one network answers every query with the
same layers.  :meth:`StoredPoint.result_json` splices that query's
labels into the stored text, so a hit neither decodes nor re-encodes
the point.

Reading a point from outside the process (a resumed checkpoint, a
durable-tier entry, an ingested checkpoint) is strict, because its
bytes are then trusted or served verbatim: :func:`read_point` accepts a text only if it is the canonical
encoding of the point it decodes to and every number in it is finite
and non-negative.  Anything else raises :class:`ConfigError` naming the
first offending field.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from itertools import chain
from typing import Any, Iterator, Sequence

from repro.errors import ConfigError
from repro.model.layer_model import NetworkResult
from repro.nets.inference import BACKENDS, positive_int
from repro.sim.stats import SimStats

#: Checkpoint schema version; bumped on incompatible layout changes
#: (v2 added backend provenance to the manifest and every point).
CHECKPOINT_VERSION = 2

#: The checkpoint point schema's keys, in the order its writer emits them.
POINT_KEYS = ("version", "backend", "vlen", "l2_mb", "result")

_RESULT_KEYS = ["name", "per_layer", "total"]
_LABEL_HEAD = '{"label": "'


def _escaped(text: str) -> str:
    """``text`` JSON-escaped, without the quotes.  Escaping maps each
    character on its own, so escaped pieces concatenate to the escaped
    whole."""
    return json.dumps(text)[1:-1]


class StoredPoint(Mapping[str, Any]):
    """One point payload as the store keeps it: canonical JSON text cut
    at its label slots.

    ``envelope`` is the text before the result (``{"version": 2, ...,
    "result": ``); ``parts`` and ``labels`` interleave to the result's
    text, ``labels`` holding the JSON-escaped label slots it was stored
    under.  A result that is not a network point (no slots) is one part.

    It reads as the payload dict it encodes, decoded on each access; the
    serve hot path uses :meth:`result_json` instead.
    """

    __slots__ = ("envelope", "parts", "labels", "nbytes")

    def __init__(self, envelope: str, parts: tuple[str, ...],
                 labels: tuple[str, ...]) -> None:
        self.envelope = envelope
        self.parts = parts
        self.labels = labels
        #: Length of :meth:`payload_json`: what the entry holds, and
        #: what the store's byte budget counts.
        self.nbytes = (len(envelope) + sum(map(len, parts))
                       + sum(map(len, labels)) + 1)

    def result_json(self, labels: Sequence[str] | None = None) -> str:
        """The result's JSON text with ``labels`` (JSON-escaped, one per
        slot, as :attr:`repro.serve.protocol.Query.json_labels` gives
        them) spliced in; the stored labels by default."""
        if labels is None:
            labels = self.labels
        elif len(labels) != len(self.labels):
            raise ConfigError(
                f"stored point has {len(self.labels)} label slots, the "
                f"query needs {len(labels)}")
        return "".join(chain.from_iterable(zip(self.parts, labels))) + (
            self.parts[-1])

    def payload_json(self) -> str:
        """The payload's canonical text (``json.dumps`` of the dict)."""
        return self.envelope + self.result_json() + "}"

    def entry_json(self, key: str) -> str:
        """The durable tier's entry file for ``key``."""
        return f'{{"key": {json.dumps(key)}, "point": {self.payload_json()}}}'

    def payload(self) -> dict[str, Any]:
        """The payload, decoded."""
        return json.loads(self.payload_json())

    def __getitem__(self, key: str) -> Any:
        return self.payload()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.payload())

    def __len__(self) -> int:
        return len(self.payload())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StoredPoint):
            return self.payload_json() == other.payload_json()
        if isinstance(other, Mapping):
            return self.payload() == dict(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"StoredPoint({self.payload_json()[:80]}...)"


def _is_point(result: Any) -> bool:
    """Whether ``result`` has a network point's shape: name, per-layer
    stats labelled ``<name>[<algorithm>]``, total, each stats dict
    opening with its label."""
    def labelled(stats: Any) -> bool:
        return (isinstance(stats, dict) and next(iter(stats), None) == "label"
                and isinstance(stats["label"], str))

    return (isinstance(result, dict) and list(result) == _RESULT_KEYS
            and isinstance(result["name"], str)
            and isinstance(result["per_layer"], list)
            and all(labelled(s) and "[" in s["label"]
                    for s in result["per_layer"])
            and labelled(result["total"]))


def _cut(result: dict[str, Any]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The result's JSON text cut at its label slots."""
    labels = [_escaped(result["name"])]
    parts = ['{"name": "', '", "per_layer": [']
    for i, stats in enumerate(result["per_layer"]):
        label = stats["label"]
        name = _escaped(label[:label.rindex("[")])
        parts[-1] += (", " if i else "") + _LABEL_HEAD
        labels.append(name)
        parts.append(json.dumps(stats)[len(_LABEL_HEAD) + len(name):])
    total = result["total"]
    label = _escaped(total["label"])
    parts[-1] += '], "total": ' + _LABEL_HEAD
    labels.append(label)
    parts.append(json.dumps(total)[len(_LABEL_HEAD) + len(label):] + "}")
    return tuple(parts), tuple(labels)


def encode_point(payload: Mapping[str, Any]) -> StoredPoint:
    """Encode one point payload (the checkpoint point schema, ``result``
    its ``NetworkResult.to_dict()`` form) once, for the store."""
    envelope = "{" + "".join(
        f"{json.dumps(k)}: {json.dumps(v)}, "
        for k, v in payload.items() if k != "result") + '"result": '
    result = payload["result"]
    if _is_point(result):
        parts, labels = _cut(result)
    else:
        parts, labels = (json.dumps(result),), ()
    return StoredPoint(envelope, parts, labels)


# ----------------------------------------------------------------------
# Strict reading.
# ----------------------------------------------------------------------
def _join(path: str, key: str | int) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _first_difference(got: Any, want: Any, path: str = "") -> str | None:
    """The JSON path of the first place ``got`` differs from ``want`` in
    keys, key order, length, type or value; None when they are equal."""
    if type(got) is not type(want):
        return path or "<payload>"
    if isinstance(want, dict):
        odd = [k for k in want if k not in got] + [
            k for k in got if k not in want]
        if odd:
            return _join(path, odd[0])
        if list(got) != list(want):
            return f"{path or '<payload>'} (key order)"
        pairs = ((_join(path, k), got[k], want[k]) for k in want)
    elif isinstance(want, list):
        if len(got) != len(want):
            return f"{path} (length)"
        pairs = ((_join(path, i), g, w)
                 for i, (g, w) in enumerate(zip(got, want)))
    else:
        return None if got == want else path
    for sub, g, w in pairs:
        found = _first_difference(g, w, sub)
        if found is not None:
            return found
    return None


def _first_negative(obj: Any, path: str = "") -> str | None:
    """The JSON path of the first negative (or ``-0.0``) or non-finite
    number in ``obj``; a point holds none."""
    if isinstance(obj, dict):
        items: Any = ((_join(path, k), v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((_join(path, i), v) for i, v in enumerate(obj))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        ok = math.isfinite(obj) and math.copysign(1.0, obj) > 0
        return None if ok else path
    else:
        return None
    for sub, value in items:
        found = _first_negative(value, sub)
        if found is not None:
            return found
    return None


def canonical_point(payload: Any) -> StoredPoint:
    """Validate one decoded point payload against the point it decodes
    to, and encode that point.

    Raises :class:`ConfigError` naming the first field that is missing,
    extra, out of order, of another type or value than the canonical
    encoding has (derived values such as ``cycles`` included), negative
    or non-finite; for a point without layers or a layer label without
    its ``[<algorithm>]`` suffix; and for a total that is not its layers
    merged in order (a dropped or altered layer).
    """
    if not isinstance(payload, dict):
        raise ConfigError("point is not a JSON object")
    missing = [k for k in POINT_KEYS if k not in payload]
    if missing:
        raise ConfigError(f"point misses field {missing[0]!r}")
    if payload["version"] != CHECKPOINT_VERSION:
        raise ConfigError(
            f"point schema v{payload['version']!r} (this reader speaks "
            f"v{CHECKPOINT_VERSION})")
    if payload["backend"] not in BACKENDS:
        raise ConfigError(f"point backend {payload['backend']!r} "
                          f"(expected one of {BACKENDS})")
    try:
        result = NetworkResult.from_dict(payload["result"])
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as e:
        raise ConfigError(
            f"malformed point result ({type(e).__name__}: {e})") from None
    canonical = {
        "version": CHECKPOINT_VERSION,
        "backend": payload["backend"],
        "vlen": positive_int(payload["vlen"], "point field vlen"),
        "l2_mb": positive_int(payload["l2_mb"], "point field l2_mb"),
        "result": result.to_dict(),
    }
    bad = _first_difference(payload, canonical)
    if bad is not None:
        raise ConfigError(f"point field {bad} is not canonical")
    bad = _first_negative(payload)
    if bad is not None:
        raise ConfigError(f"point field {bad} is negative or not finite")
    if not result.per_layer:
        raise ConfigError("point field result.per_layer is empty")
    total = SimStats(freq_ghz=result.total.freq_ghz, label=result.total.label)
    for i, stats in enumerate(result.per_layer):
        if "[" not in stats.label:
            raise ConfigError(
                f"point field result.per_layer[{i}].label {stats.label!r} "
                f"has no [<algorithm>] suffix")
        total.merge(stats)
    total.hierarchy.line_bytes = result.total.hierarchy.line_bytes
    if total != result.total:
        raise ConfigError("point field result.total is not the sum of its "
                          "layers")
    return encode_point(canonical)


def read_point(text: str, key: str | None = None) -> StoredPoint:
    """Strictly read one stored point: a checkpoint point file, or with
    ``key`` a durable-tier entry (``{"key": key, "point": ...}``).

    Accepts ``text`` only if it is byte for byte the canonical encoding
    of the point it decodes to (see :func:`canonical_point`); raises
    :class:`ConfigError` otherwise.
    """
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise ConfigError(f"invalid JSON ({e})") from None
    payload = doc
    if key is not None:
        if not isinstance(doc, dict) or list(doc) != ["key", "point"]:
            raise ConfigError("entry is not a {key, point} object")
        if doc["key"] != key:
            raise ConfigError(f"entry holds key {doc['key']!r}, not {key!r}")
        payload = doc["point"]
    point = canonical_point(payload)
    encoded = point.payload_json() if key is None else point.entry_json(key)
    if encoded != text:
        raise ConfigError("point text is not its canonical encoding "
                          "(formatting or number spelling differs)")
    return point
