"""VGG architecture builders (Simonyan & Zisserman, 2014), torchvision layout.

VGG-19 has exactly 19 weight layers (16 conv + 3 fc), each with weight and
bias, i.e. **38 parameter tensors** — the paper's Fig. 4 observes the
stepwise pattern on VGG-19 with gradients indexed 0–37, grouped into four
blocks {28–37}, {14–27}, {2–13}, {0–1}.  The tensor indexing produced by
this builder reproduces that space.
"""

from __future__ import annotations

from repro.models.layers import NUM_CLASSES, LayerSpec, ModelSpec, conv2d, linear

__all__ = ["build_vgg"]

# 'M' = 2x2/2 max-pool; numbers are conv output channels (all 3x3, pad 1).
_CONFIGS: dict[int, tuple[object, ...]] = {
    11: (64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"),
    16: (64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
         512, 512, 512, "M", 512, 512, 512, "M"),
    19: (64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
         512, 512, 512, 512, "M", 512, 512, 512, 512, "M"),
}


def build_vgg(depth: int) -> ModelSpec:
    """Build VGG-11/16/19 at 224x224 (with conv biases, no BN)."""
    if depth not in _CONFIGS:
        raise ValueError(f"unsupported VGG depth {depth}; choose from {sorted(_CONFIGS)}")
    layers: list[LayerSpec] = []
    size, in_ch = 224, 3
    conv_idx = 0
    for item in _CONFIGS[depth]:
        if item == "M":
            size //= 2
            layers.append(LayerSpec(f"features.pool{conv_idx}", "pool"))
        else:
            out_ch = int(item)  # type: ignore[arg-type]
            conv, size = conv2d(
                f"features.conv{conv_idx}", in_ch, out_ch, 3, size, padding=1, bias=True
            )
            layers.append(conv)
            in_ch = out_ch
            conv_idx += 1
    layers.append(linear("classifier.0", in_ch * size * size, 4096))
    layers.append(linear("classifier.3", 4096, 4096))
    layers.append(linear("classifier.6", 4096, NUM_CLASSES))
    return ModelSpec(name=f"vgg{depth}", input_size=224, layers=tuple(layers))
