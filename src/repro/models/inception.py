"""Inception-v3 architecture builder (Szegedy et al., CVPR 2016).

Follows the torchvision module layout (aux classifier omitted — it is
disabled for the fine-tuning/throughput workloads the paper runs): a
5-conv stem, 3x InceptionA at 35x35, InceptionB, 4x InceptionC at 17x17
with the 7x1/1x7 factorized convolutions, InceptionD, 2x InceptionE at 8x8,
and the final fully-connected classifier.  Every convolution is a
``BasicConv2d`` — bias-free conv followed by an affine BatchNorm — so each
contributes three parameter tensors.
"""

from __future__ import annotations

from repro.models.layers import NUM_CLASSES, LayerSpec, ModelSpec, batchnorm, conv2d

__all__ = ["build_inception_v3"]


def _cbn(
    layers: list[LayerSpec],
    name: str,
    in_ch: int,
    out_ch: int,
    kernel: int | tuple[int, int],
    size: int,
    stride: int = 1,
    padding: int = 0,
) -> int:
    """Append a BasicConv2d (conv + affine BN); returns output spatial size."""
    conv, out_size = conv2d(f"{name}.conv", in_ch, out_ch, kernel, size, stride, padding)
    layers.append(conv)
    layers.append(batchnorm(f"{name}.bn", out_ch, out_size))
    return out_size


def _inception_a(layers: list[LayerSpec], name: str, in_ch: int, pool_ch: int, size: int) -> int:
    """35x35 module; returns output channels (spatial size unchanged)."""
    _cbn(layers, f"{name}.branch1x1", in_ch, 64, 1, size)
    _cbn(layers, f"{name}.branch5x5_1", in_ch, 48, 1, size)
    _cbn(layers, f"{name}.branch5x5_2", 48, 64, 5, size, padding=2)
    _cbn(layers, f"{name}.branch3x3dbl_1", in_ch, 64, 1, size)
    _cbn(layers, f"{name}.branch3x3dbl_2", 64, 96, 3, size, padding=1)
    _cbn(layers, f"{name}.branch3x3dbl_3", 96, 96, 3, size, padding=1)
    _cbn(layers, f"{name}.branch_pool", in_ch, pool_ch, 1, size)
    return 64 + 64 + 96 + pool_ch


def _inception_b(layers: list[LayerSpec], name: str, in_ch: int, size: int) -> tuple[int, int]:
    """Grid reduction 35 -> 17; returns (out_channels, out_size)."""
    out_size = _cbn(layers, f"{name}.branch3x3", in_ch, 384, 3, size, stride=2)
    _cbn(layers, f"{name}.branch3x3dbl_1", in_ch, 64, 1, size)
    _cbn(layers, f"{name}.branch3x3dbl_2", 64, 96, 3, size, padding=1)
    _cbn(layers, f"{name}.branch3x3dbl_3", 96, 96, 3, size, stride=2)
    return 384 + 96 + in_ch, out_size


def _inception_c(layers: list[LayerSpec], name: str, in_ch: int, c7: int, size: int) -> int:
    """17x17 module with factorized 7x7 convolutions; returns out channels."""
    _cbn(layers, f"{name}.branch1x1", in_ch, 192, 1, size)
    _cbn(layers, f"{name}.branch7x7_1", in_ch, c7, 1, size)
    _cbn(layers, f"{name}.branch7x7_2", c7, c7, (1, 7), size, padding=3)
    _cbn(layers, f"{name}.branch7x7_3", c7, 192, (7, 1), size, padding=3)
    _cbn(layers, f"{name}.branch7x7dbl_1", in_ch, c7, 1, size)
    _cbn(layers, f"{name}.branch7x7dbl_2", c7, c7, (7, 1), size, padding=3)
    _cbn(layers, f"{name}.branch7x7dbl_3", c7, c7, (1, 7), size, padding=3)
    _cbn(layers, f"{name}.branch7x7dbl_4", c7, c7, (7, 1), size, padding=3)
    _cbn(layers, f"{name}.branch7x7dbl_5", c7, 192, (1, 7), size, padding=3)
    _cbn(layers, f"{name}.branch_pool", in_ch, 192, 1, size)
    return 192 * 4


def _inception_d(layers: list[LayerSpec], name: str, in_ch: int, size: int) -> tuple[int, int]:
    """Grid reduction 17 -> 8; returns (out_channels, out_size)."""
    _cbn(layers, f"{name}.branch3x3_1", in_ch, 192, 1, size)
    out_size = _cbn(layers, f"{name}.branch3x3_2", 192, 320, 3, size, stride=2)
    _cbn(layers, f"{name}.branch7x7x3_1", in_ch, 192, 1, size)
    _cbn(layers, f"{name}.branch7x7x3_2", 192, 192, (1, 7), size, padding=3)
    _cbn(layers, f"{name}.branch7x7x3_3", 192, 192, (7, 1), size, padding=3)
    _cbn(layers, f"{name}.branch7x7x3_4", 192, 192, 3, size, stride=2)
    return 320 + 192 + in_ch, out_size


def _inception_e(layers: list[LayerSpec], name: str, in_ch: int, size: int) -> int:
    """8x8 module with split 1x3/3x1 branches; returns out channels."""
    _cbn(layers, f"{name}.branch1x1", in_ch, 320, 1, size)
    _cbn(layers, f"{name}.branch3x3_1", in_ch, 384, 1, size)
    _cbn(layers, f"{name}.branch3x3_2a", 384, 384, (1, 3), size, padding=1)
    _cbn(layers, f"{name}.branch3x3_2b", 384, 384, (3, 1), size, padding=1)
    _cbn(layers, f"{name}.branch3x3dbl_1", in_ch, 448, 1, size)
    _cbn(layers, f"{name}.branch3x3dbl_2", 448, 384, 3, size, padding=1)
    _cbn(layers, f"{name}.branch3x3dbl_3a", 384, 384, (1, 3), size, padding=1)
    _cbn(layers, f"{name}.branch3x3dbl_3b", 384, 384, (3, 1), size, padding=1)
    _cbn(layers, f"{name}.branch_pool", in_ch, 192, 1, size)
    return 320 + 768 + 768 + 192


def build_inception_v3() -> ModelSpec:
    """Inception-v3 at 299x299: 94 conv/bn pairs + fc, ~25 M parameters."""
    from repro.models.layers import linear

    layers: list[LayerSpec] = []
    size = _cbn(layers, "Conv2d_1a_3x3", 3, 32, 3, 299, stride=2)        # 149
    size = _cbn(layers, "Conv2d_2a_3x3", 32, 32, 3, size)                # 147
    size = _cbn(layers, "Conv2d_2b_3x3", 32, 64, 3, size, padding=1)     # 147
    size = (size - 3) // 2 + 1                                           # 73
    layers.append(LayerSpec("maxpool1", "pool"))
    size = _cbn(layers, "Conv2d_3b_1x1", 64, 80, 1, size)                # 73
    size = _cbn(layers, "Conv2d_4a_3x3", 80, 192, 3, size)               # 71
    size = (size - 3) // 2 + 1                                           # 35
    layers.append(LayerSpec("maxpool2", "pool"))

    ch = _inception_a(layers, "Mixed_5b", 192, 32, size)                 # 256
    ch = _inception_a(layers, "Mixed_5c", ch, 64, size)                  # 288
    ch = _inception_a(layers, "Mixed_5d", ch, 64, size)                  # 288
    ch, size = _inception_b(layers, "Mixed_6a", ch, size)                # 768 @ 17
    for suffix, c7 in zip("bcde", (128, 160, 160, 192)):
        ch = _inception_c(layers, f"Mixed_6{suffix}", ch, c7, size)      # 768
    ch, size = _inception_d(layers, "Mixed_7a", ch, size)                # 1280 @ 8
    ch = _inception_e(layers, "Mixed_7b", ch, size)                      # 2048
    ch = _inception_e(layers, "Mixed_7c", ch, size)                      # 2048

    layers.append(LayerSpec("avgpool", "pool"))
    layers.append(linear("fc", ch, NUM_CLASSES))
    return ModelSpec(name="inception_v3", input_size=299, layers=tuple(layers))
