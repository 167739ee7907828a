"""AlexNet architecture builder (Krizhevsky et al., 2012), torchvision layout.

A small-tensor-count model (16 tensors, ~61 M parameters, heavily dominated
by the first FC layer) — useful as a stress case where a single huge
gradient blocks everything behind it, the exact failure mode that motivates
priority-based scheduling.
"""

from __future__ import annotations

from repro.models.layers import NUM_CLASSES, LayerSpec, ModelSpec, conv2d, linear

__all__ = ["build_alexnet"]


def build_alexnet() -> ModelSpec:
    """AlexNet at 224x224 (torchvision single-tower variant)."""
    layers: list[LayerSpec] = []
    conv, size = conv2d("features.0", 3, 64, 11, 224, stride=4, padding=2, bias=True)
    layers.append(conv)
    size = (size - 3) // 2 + 1
    layers.append(LayerSpec("features.pool0", "pool"))
    conv, size = conv2d("features.3", 64, 192, 5, size, padding=2, bias=True)
    layers.append(conv)
    size = (size - 3) // 2 + 1
    layers.append(LayerSpec("features.pool1", "pool"))
    conv, size = conv2d("features.6", 192, 384, 3, size, padding=1, bias=True)
    layers.append(conv)
    conv, size = conv2d("features.8", 384, 256, 3, size, padding=1, bias=True)
    layers.append(conv)
    conv, size = conv2d("features.10", 256, 256, 3, size, padding=1, bias=True)
    layers.append(conv)
    size = (size - 3) // 2 + 1
    layers.append(LayerSpec("features.pool2", "pool"))
    layers.append(linear("classifier.1", 256 * size * size, 4096))
    layers.append(linear("classifier.4", 4096, 4096))
    layers.append(linear("classifier.6", 4096, NUM_CLASSES))
    return ModelSpec(name="alexnet", input_size=224, layers=tuple(layers))
