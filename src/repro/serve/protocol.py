"""The serve wire protocol: query schema, content addresses, NDJSON.

A *query* asks the service for a network over a (VLEN x L2) sub-grid
under one backend mode — exactly the contract of
:func:`repro.codesign.codesign_sweep`, lifted into JSON so any client
can submit it:

.. code-block:: json

    {"network": "vgg16", "vlens": [512, 1024], "l2_mbs": [1, 16],
     "mode": "exact"}

or, for a custom topology, darknet cfg text in place of the name:

.. code-block:: json

    {"cfg": "[net]\\nheight=64\\n...", "name": "my-net",
     "vlens": [512], "l2_mbs": [1], "mode": "fast"}

Content addressing
------------------
Every result the service holds is keyed by *what* it answers, never by
who asked: the :func:`network_hash` digests the resolved layer
geometry, the algorithm policy (hybrid/variant) and the base system
configuration — so two users submitting byte-different cfg files that
resolve to the same network share cache entries — and
:func:`point_key` appends the backend and the grid point.  The grid
axes themselves (``vlen_bits``/``l2_mb``) are excluded from the hashed
configuration: they are the query's coordinates, not its identity, and
a config override naming them is rejected rather than silently folded
in.

The event stream is NDJSON — one :func:`repro.obs.event` dict per
line, the same framing the JSONL flight recorder uses — so a client is
a ten-line loop over :func:`iter_ndjson`.
"""

from __future__ import annotations

import hashlib
import http.client
import json
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Iterator, Mapping

from repro.codesign.sweep import BACKEND_EXACT, BACKENDS
from repro.conv.layer import ConvLayerSpec
from repro.errors import ConfigError, ObsError
from repro.kernels.tuple_mult import SLIDEUP, VARIANTS
from repro.nets import build_layers, vgg16_layers, yolov3_layers
from repro.nets.inference import grid_axis, positive_int
from repro.nets.layers import LayerSpec, MaxPoolSpec, ShortcutSpec
from repro.sim.system import SystemConfig

#: Version of the query/event wire schema.
PROTOCOL_VERSION = 1

#: Named networks a query may reference instead of shipping cfg text.
NAMED_NETWORKS = {
    "vgg16": vgg16_layers,
    "yolov3": yolov3_layers,
}

#: Config fields a query must not override — they are the grid axes.
_AXIS_FIELDS = ("vlen_bits", "l2_mb")


@dataclass(frozen=True)
class Query:
    """One validated co-design query (the service's unit of work)."""

    network: str
    layers: tuple[LayerSpec, ...]
    vlens: tuple[int, ...]
    l2_mbs: tuple[int, ...]
    mode: str = BACKEND_EXACT
    hybrid: bool = True
    variant: str = SLIDEUP
    config: SystemConfig = SystemConfig()

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigError("query resolves to an empty network")
        if self.mode not in BACKENDS:
            raise ConfigError(
                f"unknown query mode {self.mode!r} "
                f"(expected one of {BACKENDS})"
            )
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown tuple-mult variant {self.variant!r} "
                f"(expected one of {VARIANTS})"
            )
        object.__setattr__(
            self, "vlens", tuple(sorted(set(grid_axis(self.vlens, "vlens"))))
        )
        object.__setattr__(
            self, "l2_mbs", tuple(sorted(set(grid_axis(self.l2_mbs))))
        )

    @property
    def points(self) -> tuple[tuple[int, int], ...]:
        """Every (vlen, l2_mb) point of the query grid, row-major."""
        return tuple((v, l) for v in self.vlens for l in self.l2_mbs)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Query":
        """Validate and resolve a JSON query payload.

        Raises :class:`~repro.errors.ConfigError` on any malformed
        field — the service maps that to a 400, never a traceback.
        """
        if not isinstance(payload, Mapping):
            raise ConfigError("query payload must be a JSON object")
        unknown = set(payload) - {
            "network", "cfg", "name", "max_layers", "height", "width",
            "channels", "vlens", "l2_mbs", "mode", "hybrid", "variant",
            "config",
        }
        if unknown:
            raise ConfigError(
                f"unknown query field(s): {', '.join(sorted(unknown))}"
            )
        name, layers = _resolve_network(payload)
        config = _resolve_config(payload.get("config"))
        return cls(
            network=name,
            layers=tuple(layers),
            vlens=payload.get("vlens"),
            l2_mbs=payload.get("l2_mbs"),
            mode=str(payload.get("mode", BACKEND_EXACT)),
            hybrid=bool(payload.get("hybrid", True)),
            variant=str(payload.get("variant", SLIDEUP)),
            config=config,
        )


def _resolve_network(
    payload: Mapping[str, Any]
) -> tuple[str, list[LayerSpec]]:
    cfg_text = payload.get("cfg")
    named = payload.get("network")
    if (cfg_text is None) == (named is None):
        raise ConfigError(
            "query must carry exactly one of 'network' (a named net) "
            "or 'cfg' (darknet cfg text)"
        )
    max_layers = _opt_int(payload, "max_layers")
    if named is not None:
        if named not in NAMED_NETWORKS:
            raise ConfigError(
                f"unknown network {named!r} (available: "
                f"{', '.join(sorted(NAMED_NETWORKS))}; submit custom "
                f"topologies as 'cfg' text)"
            )
        cfg_only = [f for f in ("height", "width", "channels")
                    if payload.get(f) is not None]
        if cfg_only:
            raise ConfigError(
                f"{', '.join(cfg_only)} only apply to 'cfg' queries; "
                f"named networks fix their input geometry"
            )
        layers = NAMED_NETWORKS[str(named)]()
        if max_layers is not None:
            layers = layers[:max_layers]
        return str(named), layers
    layers = build_layers(
        str(cfg_text),
        height=_opt_int(payload, "height"),
        width=_opt_int(payload, "width"),
        channels=_opt_int(payload, "channels"),
        max_layers=max_layers,
    )
    return str(payload.get("name", "custom")), layers


def _resolve_config(overrides: Any) -> SystemConfig:
    if overrides is None:
        return SystemConfig()
    if not isinstance(overrides, Mapping):
        raise ConfigError("query 'config' must be a JSON object")
    bad_axes = [f for f in _AXIS_FIELDS if f in overrides]
    if bad_axes:
        raise ConfigError(
            f"query config must not set {', '.join(bad_axes)}: the grid "
            f"axes are given by 'vlens'/'l2_mbs'"
        )
    valid = set(asdict(SystemConfig()))
    unknown = set(map(str, overrides)) - valid
    if unknown:
        raise ConfigError(
            f"unknown config field(s): {', '.join(sorted(unknown))}"
        )
    return SystemConfig(**{str(k): v for k, v in overrides.items()})


def _opt_int(payload: Mapping[str, Any], field: str) -> int | None:
    raw = payload.get(field)
    return positive_int(raw, field) if raw is not None else None


# ----------------------------------------------------------------------
# Content addressing.
# ----------------------------------------------------------------------
def _layer_dict(layer: LayerSpec) -> dict[str, Any]:
    """Type-tagged canonical dict of one layer spec."""
    kind = {
        ConvLayerSpec: "conv", MaxPoolSpec: "maxpool",
        ShortcutSpec: "shortcut",
    }[type(layer)]
    d = asdict(layer)
    d.pop("name", None)  # labels are presentation, not identity
    return {"kind": kind, **d}


def query_identity(query: Query) -> dict[str, Any]:
    """The JSON-able identity block a query's results are keyed by.

    Everything that determines a point's *value* — resolved layer
    geometry, algorithm policy, base configuration — and nothing that
    does not (network labels, the grid extents, who asked).  The grid
    axes (``vlen_bits``/``l2_mb``) are stripped from the configuration:
    :func:`point_key` carries the coordinates.
    """
    config = asdict(query.config)
    for axis in _AXIS_FIELDS:
        config.pop(axis)
    return {
        "schema": PROTOCOL_VERSION,
        "layers": [_layer_dict(layer) for layer in query.layers],
        "hybrid": query.hybrid,
        "variant": query.variant,
        "config": config,
    }


def network_hash(query: Query) -> str:
    """Content address of the query's network x policy x base config."""
    canonical = json.dumps(query_identity(query), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def point_key(query: Query, vlen: int, l2_mb: int) -> str:
    """The store key of one grid point: network hash x backend x point."""
    return f"{network_hash(query)}:{query.mode}:v{int(vlen)}:l2mb{int(l2_mb)}"


# ----------------------------------------------------------------------
# NDJSON framing and the blocking client.
# ----------------------------------------------------------------------
def encode_event(ev: Mapping[str, Any]) -> bytes:
    """One event as an NDJSON line (the wire framing)."""
    return (json.dumps(dict(ev)) + "\n").encode("utf-8")


def iter_ndjson(stream: Iterable[bytes]) -> Iterator[dict[str, Any]]:
    """Decode an NDJSON byte stream into event dicts.

    A *trailing* torn line (the connection died mid-write) is dropped
    rather than raised, matching :func:`repro.obs.read_jsonl`.  A torn
    line *followed by more data* is stream corruption, not a dropped
    connection, and raises :class:`~repro.errors.ObsError` — a consumer
    must never silently skip frames of a live stream and present the
    remainder as a complete answer.
    """
    torn: str | None = None
    for line in stream:
        text = line.decode("utf-8", errors="replace").strip()
        if torn is not None:
            raise ObsError(
                f"torn NDJSON frame mid-stream: {torn[:120]!r}"
            )
        if not text:
            continue
        try:
            ev = json.loads(text)
        except ValueError:
            torn = text
            continue
        if isinstance(ev, dict):
            yield ev


def stream_query(
    host: str,
    port: int,
    payload: Mapping[str, Any],
    timeout: float | None = None,
) -> Iterator[dict[str, Any]]:
    """Submit a query and yield its event stream (the ``repro query``
    client).

    Blocking and stdlib-only (:mod:`http.client`); yields every event
    the service streams, ending with ``query_result`` (carrying the
    full :class:`~repro.codesign.SweepResult` dict) or ``query_error``.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = json.dumps(dict(payload)).encode("utf-8")
        conn.request(
            "POST", "/v1/query", body=body,
            headers={"Content-Type": "application/json",
                     "Content-Length": str(len(body))},
        )
        resp = conn.getresponse()
        yield from iter_ndjson(resp)
    finally:
        conn.close()
