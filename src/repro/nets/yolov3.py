"""YOLOv3 network model — the first 20 layers of Darknet ``yolov3.cfg``.

"To avoid extreme simulation times, and without loss of generality, we
simulate only the first 20 layers of the network model, out of which 15
are convolutional layers" (paper, Section 5).  The composition of those
20 layers is what makes YOLOv3 the *hybrid* workload:

- 3 convolutions have stride 2 (downsampling),
- 6 convolutions are 1x1 (bottlenecks),
- the first convolution has only 3 input channels (cannot fill even a
  512-bit vector with inter-tile channel parallelism),
- 5 layers are residual shortcuts (not convolutions),

leaving exactly **5** convolutions for Winograd; the rest run
im2col+GEMM.  The test suite asserts this census against the paper.
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

#: Darknet yolov3.cfg, first 20 layers.
YOLOV3_CFG_HEAD = """
[net]
height=576
width=768
channels=3

# Layer 0
[convolutional]
batch_normalize=1
filters=32
size=3
stride=1
pad=1
activation=leaky

# Layer 1 - downsample
[convolutional]
batch_normalize=1
filters=64
size=3
stride=2
pad=1
activation=leaky

# Layer 2
[convolutional]
batch_normalize=1
filters=32
size=1
stride=1
pad=1
activation=leaky

# Layer 3
[convolutional]
batch_normalize=1
filters=64
size=3
stride=1
pad=1
activation=leaky

# Layer 4
[shortcut]
from=-3
activation=linear

# Layer 5 - downsample
[convolutional]
batch_normalize=1
filters=128
size=3
stride=2
pad=1
activation=leaky

# Layer 6
[convolutional]
batch_normalize=1
filters=64
size=1
stride=1
pad=1
activation=leaky

# Layer 7
[convolutional]
batch_normalize=1
filters=128
size=3
stride=1
pad=1
activation=leaky

# Layer 8
[shortcut]
from=-3
activation=linear

# Layer 9
[convolutional]
batch_normalize=1
filters=64
size=1
stride=1
pad=1
activation=leaky

# Layer 10
[convolutional]
batch_normalize=1
filters=128
size=3
stride=1
pad=1
activation=leaky

# Layer 11
[shortcut]
from=-3
activation=linear

# Layer 12 - downsample
[convolutional]
batch_normalize=1
filters=256
size=3
stride=2
pad=1
activation=leaky

# Layer 13
[convolutional]
batch_normalize=1
filters=128
size=1
stride=1
pad=1
activation=leaky

# Layer 14
[convolutional]
batch_normalize=1
filters=256
size=3
stride=1
pad=1
activation=leaky

# Layer 15
[shortcut]
from=-3
activation=linear

# Layer 16
[convolutional]
batch_normalize=1
filters=128
size=1
stride=1
pad=1
activation=leaky

# Layer 17
[convolutional]
batch_normalize=1
filters=256
size=3
stride=1
pad=1
activation=leaky

# Layer 18
[shortcut]
from=-3
activation=linear

# Layer 19
[convolutional]
batch_normalize=1
filters=128
size=1
stride=1
pad=1
activation=leaky

# Layer 20
[convolutional]
batch_normalize=1
filters=256
size=3
stride=1
pad=1
activation=leaky

# Layer 21
[shortcut]
from=-3
activation=linear

# Layer 22
[convolutional]
batch_normalize=1
filters=128
size=1
stride=1
pad=1
activation=leaky

# Layer 23
[convolutional]
batch_normalize=1
filters=256
size=3
stride=1
pad=1
activation=leaky

# Layer 24
[shortcut]
from=-3
activation=linear

# Layer 25
[convolutional]
batch_normalize=1
filters=128
size=1
stride=1
pad=1
activation=leaky

# Layer 26
[convolutional]
batch_normalize=1
filters=256
size=3
stride=1
pad=1
activation=leaky

# Layer 27
[shortcut]
from=-3
activation=linear

# Layer 28
[convolutional]
batch_normalize=1
filters=128
size=1
stride=1
pad=1
activation=leaky

# Layer 29
[convolutional]
batch_normalize=1
filters=256
size=3
stride=1
pad=1
activation=leaky

# Layer 30
[shortcut]
from=-3
activation=linear

# Layer 31
[convolutional]
batch_normalize=1
filters=128
size=1
stride=1
pad=1
activation=leaky

# Layer 32
[convolutional]
batch_normalize=1
filters=256
size=3
stride=1
pad=1
activation=leaky

# Layer 33
[shortcut]
from=-3
activation=linear

# Layer 34
[convolutional]
batch_normalize=1
filters=128
size=1
stride=1
pad=1
activation=leaky

# Layer 35
[convolutional]
batch_normalize=1
filters=256
size=3
stride=1
pad=1
activation=leaky

# Layer 36
[shortcut]
from=-3
activation=linear
"""

#: Darknet's 1x1 layers set pad=1, but padding = size//2 = 0 — the
#: parser reproduces that quirk through the ``padding`` computation.

#: Layers available in the embedded cfg (the paper simulates 20; the
#: remainder of Darknet-53's 256-channel residual stage is included so
#: deeper prefixes can be explored beyond the paper).
MAX_EMBEDDED_LAYERS = 37


@cache
def _sections() -> Sections:
    """:data:`YOLOV3_CFG_HEAD`, parsed on first use, once per process."""
    return frozen_sections(YOLOV3_CFG_HEAD)


def yolov3_layers(
    height: int = 576, width: int = 768, max_layers: int = 20
) -> list[LayerSpec]:
    """The paper's simulated YOLOv3 prefix at 768x576.

    ``max_layers`` defaults to the paper's 20; anything up to
    :data:`MAX_EMBEDDED_LAYERS` is supported.
    """
    return build_layers(
        _sections(), height=height, width=width,
        max_layers=max_layers, name_prefix="yolo.",
    )


def yolov3_conv_layers(height: int = 576, width: int = 768) -> list[ConvLayerSpec]:
    """The 15 convolutional layers of the 20-layer prefix."""
    return conv_layers(yolov3_layers(height, width))
