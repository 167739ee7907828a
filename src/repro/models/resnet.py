"""ResNet architecture builders (He et al., CVPR 2016), torchvision layout.

Parameter-tensor counts and totals match the reference implementations:

* ResNet-18 — 62 tensors, 11.69 M parameters
* ResNet-50 — 161 tensors, 25.56 M parameters
* ResNet-152 — 467 tensors, 60.19 M parameters

ResNet-50's ~161 tensors are what make the paper's Fig. 4 staircase run
from gradient 0 up to gradient ~156 (BN statistics excluded there).
"""

from __future__ import annotations

from repro.models.layers import NUM_CLASSES, LayerSpec, ModelSpec, batchnorm, conv2d, linear

__all__ = ["build_resnet"]

_STAGE_CHANNELS = (64, 128, 256, 512)


def _basic_block(
    layers: list[LayerSpec], prefix: str, in_ch: int, out_ch: int, stride: int, size: int
) -> tuple[int, int]:
    """Append a BasicBlock (two 3x3 convs); returns (out_ch, out_size)."""
    conv, size = conv2d(f"{prefix}.conv1", in_ch, out_ch, 3, size, stride, padding=1)
    layers.append(conv)
    layers.append(batchnorm(f"{prefix}.bn1", out_ch, size))
    conv, size = conv2d(f"{prefix}.conv2", out_ch, out_ch, 3, size, 1, padding=1)
    layers.append(conv)
    layers.append(batchnorm(f"{prefix}.bn2", out_ch, size))
    if stride != 1 or in_ch != out_ch:
        ds, _ = conv2d(f"{prefix}.downsample.0", in_ch, out_ch, 1, size * stride, stride)
        layers.append(ds)
        layers.append(batchnorm(f"{prefix}.downsample.1", out_ch, size))
    return out_ch, size


def _bottleneck_block(
    layers: list[LayerSpec], prefix: str, in_ch: int, width: int, stride: int, size: int
) -> tuple[int, int]:
    """Append a Bottleneck (1x1 -> 3x3 -> 1x1 x4); returns (out_ch, out_size)."""
    out_ch = width * 4
    conv, s = conv2d(f"{prefix}.conv1", in_ch, width, 1, size, 1)
    layers.append(conv)
    layers.append(batchnorm(f"{prefix}.bn1", width, s))
    conv, s = conv2d(f"{prefix}.conv2", width, width, 3, s, stride, padding=1)
    layers.append(conv)
    layers.append(batchnorm(f"{prefix}.bn2", width, s))
    conv, s = conv2d(f"{prefix}.conv3", width, out_ch, 1, s, 1)
    layers.append(conv)
    layers.append(batchnorm(f"{prefix}.bn3", out_ch, s))
    if stride != 1 or in_ch != out_ch:
        ds, _ = conv2d(f"{prefix}.downsample.0", in_ch, out_ch, 1, size, stride)
        layers.append(ds)
        layers.append(batchnorm(f"{prefix}.downsample.1", out_ch, s))
    return out_ch, s


def build_resnet(depth: int) -> ModelSpec:
    """Build a ResNet of the given depth (18, 34, 50, 101, or 152)."""
    configs: dict[int, tuple[str, tuple[int, int, int, int]]] = {
        18: ("basic", (2, 2, 2, 2)),
        34: ("basic", (3, 4, 6, 3)),
        50: ("bottleneck", (3, 4, 6, 3)),
        101: ("bottleneck", (3, 4, 23, 3)),
        152: ("bottleneck", (3, 8, 36, 3)),
    }
    if depth not in configs:
        raise ValueError(f"unsupported ResNet depth {depth}; choose from {sorted(configs)}")
    block_kind, repeats = configs[depth]

    layers: list[LayerSpec] = []
    conv, size = conv2d("conv1", 3, 64, 7, 224, stride=2, padding=3)
    layers.append(conv)
    layers.append(batchnorm("bn1", 64, size))
    size = (size - 1) // 2 + 1  # 3x3/2 max-pool with padding 1: 112 -> 56
    layers.append(LayerSpec("maxpool", "pool"))

    in_ch = 64
    for stage, (channels, blocks) in enumerate(zip(_STAGE_CHANNELS, repeats), start=1):
        for b in range(blocks):
            stride = 2 if (stage > 1 and b == 0) else 1
            prefix = f"layer{stage}.{b}"
            if block_kind == "basic":
                in_ch, size = _basic_block(layers, prefix, in_ch, channels, stride, size)
            else:
                in_ch, size = _bottleneck_block(layers, prefix, in_ch, channels, stride, size)

    layers.append(LayerSpec("avgpool", "pool"))
    layers.append(linear("fc", in_ch, NUM_CLASSES))
    return ModelSpec(name=f"resnet{depth}", input_size=224, layers=tuple(layers))
