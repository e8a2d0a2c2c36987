"""Darknet ``.cfg`` parsing and network-geometry construction.

The paper evaluates network models "from the Darknet framework"; this
module parses Darknet's INI-like configuration format and walks it into
the layer specifications the simulator consumes, tracking the
activation geometry through convolutions, pools, shortcuts and route
layers exactly as Darknet's ``parse_network_cfg`` does.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from types import MappingProxyType

from repro.conv.layer import ConvLayerSpec
from repro.errors import ConfigError
from repro.nets.layers import LayerSpec, MaxPoolSpec, ShortcutSpec

#: Parsed cfg sections as :func:`build_layers` reads them.
Sections = Sequence[tuple[str, Mapping[str, str]]]


def parse_cfg(text: str) -> list[tuple[str, dict[str, str]]]:
    """Parse Darknet cfg text into (section_name, options) pairs.

    Supports comments (#, ;), repeated sections, and ``key=value``
    options; values stay strings (Darknet parses lazily too).
    """
    sections: list[tuple[str, dict[str, str]]] = []
    current: dict[str, str] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header: {line!r}")
            sections.append((line[1:-1].strip().lower(), {}))
            current = sections[-1][1]
        else:
            if current is None:
                raise ConfigError(f"option outside any section: {line!r}")
            if "=" not in line:
                raise ConfigError(f"malformed option line: {line!r}")
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
    if not sections:
        raise ConfigError("empty cfg")
    return sections


def frozen_sections(text: str) -> tuple[tuple[str, Mapping[str, str]], ...]:
    """``parse_cfg(text)`` as read-only sections: what a network
    builder keeps when it parses a constant cfg once per process."""
    return tuple((name, MappingProxyType(opts))
                 for name, opts in parse_cfg(text))


def build_layers(
    text: str | Sections,
    height: int | None = None,
    width: int | None = None,
    channels: int | None = None,
    max_layers: int | None = None,
    name_prefix: str = "",
) -> list[LayerSpec]:
    """Walk a cfg into layer specs, tracking activation geometry.

    Args:
        text: Darknet cfg contents (must start with a [net]/[network]
            section), or its sections as :func:`parse_cfg` returns them.
        height/width/channels: input geometry overrides (the paper runs
            768x576 RGB regardless of the cfg's defaults).
        max_layers: keep only the first N non-[net] layers (the paper
            simulates YOLOv3's first 20).
        name_prefix: prepended to generated layer names.

    Returns:
        Layer specs for every convolutional/maxpool/shortcut layer;
        geometry-only sections (route, yolo, ...) raise if encountered
        before ``max_layers`` is reached, since their semantics would
        change downstream shapes.
    """
    sections = parse_cfg(text) if isinstance(text, str) else text
    net_name, net_opts = sections[0]
    if net_name not in ("net", "network"):
        raise ConfigError(f"cfg must start with [net], got [{net_name}]")
    h = height if height is not None else int(net_opts.get("height", 0))
    w = width if width is not None else int(net_opts.get("width", 0))
    c = channels if channels is not None else int(net_opts.get("channels", 3))
    if min(h, w, c) < 1:
        raise ConfigError(f"invalid input geometry {c}x{h}x{w}")

    layers: list[LayerSpec] = []
    # Per-layer output geometry for shortcut resolution ((c, h, w)).
    out_geom: list[tuple[int, int, int]] = []
    idx = 0
    for sec_name, opts in sections[1:]:
        if max_layers is not None and idx >= max_layers:
            break
        if sec_name == "convolutional":
            ksize = int(opts.get("size", 1))
            stride = int(opts.get("stride", 1))
            pad_flag = int(opts.get("pad", 0))
            pad = int(opts.get("padding", ksize // 2 if pad_flag else 0))
            filters = int(opts.get("filters", 1))
            spec = ConvLayerSpec(
                name=f"{name_prefix}conv{idx}",
                c_in=c, h_in=h, w_in=w, c_out=filters,
                ksize=ksize, stride=stride, pad=pad,
            )
            layers.append(spec)
            c, h, w = filters, spec.h_out, spec.w_out
        elif sec_name == "maxpool":
            size = int(opts.get("size", 2))
            stride = int(opts.get("stride", size))
            spec = MaxPoolSpec(
                name=f"{name_prefix}pool{idx}", c=c, h=h, w=w,
                size=size, stride=stride,
            )
            layers.append(spec)
            h, w = spec.h_out, spec.w_out
        elif sec_name == "shortcut":
            frm = int(opts["from"])
            ref = out_geom[idx + frm if frm < 0 else frm]
            if ref != (c, h, w):
                raise ConfigError(
                    f"shortcut {idx} shape mismatch: {ref} vs {(c, h, w)}"
                )
            layers.append(
                ShortcutSpec(name=f"{name_prefix}short{idx}", c=c, h=h, w=w)
            )
        else:
            raise ConfigError(
                f"unsupported layer type [{sec_name}] at index {idx}; "
                f"truncate with max_layers before it"
            )
        out_geom.append((c, h, w))
        idx += 1
    return layers


def conv_layers(layers: list[LayerSpec]) -> list[ConvLayerSpec]:
    """Just the convolutional layers, in order."""
    return [l for l in layers if isinstance(l, ConvLayerSpec)]
