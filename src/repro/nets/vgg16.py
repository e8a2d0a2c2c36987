"""VGG16 network model (Darknet ``vgg-16.cfg`` convolutional trunk).

The paper runs VGG16 image-classification inference on a 768x576 input.
All 13 convolutions are 3x3 stride-1 pad-1, which is why VGG16 is the
pure-Winograd workload of the evaluation; five 2x2/2 max-pool layers
halve the resolution between stages.  (The cfg's trailing
fully-connected/softmax head is dropped — the paper's co-design study
concerns the convolutional layers.)
"""

from __future__ import annotations

from functools import cache

from repro.conv.layer import ConvLayerSpec
from repro.nets.darknet_cfg import (
    Sections,
    build_layers,
    conv_layers,
    frozen_sections,
)
from repro.nets.layers import LayerSpec

#: Darknet vgg-16.cfg, convolutional trunk.
VGG16_CFG = """
[net]
height=576
width=768
channels=3

[convolutional]
filters=64
size=3
stride=1
pad=1
activation=relu

[convolutional]
filters=64
size=3
stride=1
pad=1
activation=relu

[maxpool]
size=2
stride=2

[convolutional]
filters=128
size=3
stride=1
pad=1
activation=relu

[convolutional]
filters=128
size=3
stride=1
pad=1
activation=relu

[maxpool]
size=2
stride=2

[convolutional]
filters=256
size=3
stride=1
pad=1
activation=relu

[convolutional]
filters=256
size=3
stride=1
pad=1
activation=relu

[convolutional]
filters=256
size=3
stride=1
pad=1
activation=relu

[maxpool]
size=2
stride=2

[convolutional]
filters=512
size=3
stride=1
pad=1
activation=relu

[convolutional]
filters=512
size=3
stride=1
pad=1
activation=relu

[convolutional]
filters=512
size=3
stride=1
pad=1
activation=relu

[maxpool]
size=2
stride=2

[convolutional]
filters=512
size=3
stride=1
pad=1
activation=relu

[convolutional]
filters=512
size=3
stride=1
pad=1
activation=relu

[convolutional]
filters=512
size=3
stride=1
pad=1
activation=relu

[maxpool]
size=2
stride=2
"""


@cache
def _sections() -> Sections:
    """:data:`VGG16_CFG`, parsed on first use, once per process."""
    return frozen_sections(VGG16_CFG)


def vgg16_layers(height: int = 576, width: int = 768) -> list[LayerSpec]:
    """All VGG16 trunk layers (convolutions + pools) at the paper's input."""
    return build_layers(_sections(), height=height, width=width,
                        name_prefix="vgg.")


def vgg16_conv_layers(height: int = 576, width: int = 768) -> list[ConvLayerSpec]:
    """The 13 convolutional layers."""
    return conv_layers(vgg16_layers(height, width))
