"""Core model-description data structures.

A :class:`ModelSpec` is an ordered list of :class:`LayerSpec`, each carrying
its trainable :class:`ParamTensor` list and its per-sample forward FLOPs.
Order is *forward* order; gradient priorities derive from it (tensor 0 =
first tensor of the first layer = the last gradient produced by backward
propagation = the paper's highest-priority "gradient 0").

Helper constructors (:func:`conv2d`, :func:`batchnorm`, :func:`linear`)
compute parameter counts and FLOPs from shapes, so architecture builders
read like the architectures themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ConfigurationError

__all__ = [
    "ParamTensor",
    "LayerSpec",
    "ModelSpec",
    "conv2d",
    "batchnorm",
    "linear",
    "conv_out_size",
    "NUM_CLASSES",
]

#: Classifier width of every zoo model (the ImageNet-1k head).
NUM_CLASSES = 1000


@dataclass(frozen=True)
class ParamTensor:
    """One trainable tensor — the unit of gradient communication.

    ``shape`` is kept for documentation/debugging; only ``num_params``
    matters to the scheduler.
    """

    name: str
    shape: tuple[int, ...]

    @property
    def num_params(self) -> int:
        n = 1
        for dim in self.shape:
            n *= dim
        return n

    def nbytes(self, dtype_bytes: int = 4) -> int:
        """Size of the tensor (and of its gradient) in bytes."""
        return self.num_params * dtype_bytes


@dataclass(frozen=True)
class LayerSpec:
    """One layer in forward order.

    Attributes
    ----------
    name:
        Unique layer name, e.g. ``"layer3.4.conv2"``.
    kind:
        ``"conv" | "bn" | "fc" | "pool" | "act"`` — informational.
    params:
        Trainable tensors owned by this layer (may be empty, e.g. pooling).
    fwd_flops:
        Forward FLOPs per sample (multiply-accumulate counted as 2 FLOPs).
    """

    name: str
    kind: str
    params: tuple[ParamTensor, ...] = ()
    fwd_flops: float = 0.0

    @property
    def num_params(self) -> int:
        return sum(p.num_params for p in self.params)


@dataclass(frozen=True)
class ModelSpec:
    """A complete model: named, ordered layers plus the input resolution."""

    name: str
    input_size: int
    layers: tuple[LayerSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate layer names in model {self.name!r}")

    @cached_property
    def num_params(self) -> int:
        """Total trainable parameters."""
        return sum(layer.num_params for layer in self.layers)

    @cached_property
    def num_tensors(self) -> int:
        """Total parameter tensors — the number of gradients per iteration."""
        return sum(len(layer.params) for layer in self.layers)

    def param_bytes(self, dtype_bytes: int = 4) -> int:
        """Total model size in bytes (== gradient bytes per iteration)."""
        return self.num_params * dtype_bytes

    @cached_property
    def fwd_flops(self) -> float:
        """Total forward FLOPs per sample."""
        return sum(layer.fwd_flops for layer in self.layers)

    def parameterized_layers(self) -> list[int]:
        """Indices of layers that own at least one parameter tensor."""
        return [i for i, layer in enumerate(self.layers) if layer.params]


# ----------------------------------------------------------------------
# Layer constructors
# ----------------------------------------------------------------------
def conv_out_size(in_size: int, kernel: int, stride: int = 1, padding: int = 0) -> int:
    """Output spatial size of a square convolution / pooling window."""
    return (in_size + 2 * padding - kernel) // stride + 1


def conv2d(
    name: str,
    in_ch: int,
    out_ch: int,
    kernel: int | tuple[int, int],
    in_size: int,
    stride: int = 1,
    padding: int = 0,
    bias: bool = False,
) -> tuple[LayerSpec, int]:
    """Build a conv layer spec; returns ``(layer, out_spatial_size)``.

    Rectangular kernels (Inception's 1x7 / 7x1 factorizations) are given as
    ``(kh, kw)``; padding is applied symmetrically per the larger dimension,
    which matches the 'same'-style padding those blocks use.
    """
    if isinstance(kernel, int):
        kh = kw = kernel
    else:
        kh, kw = kernel
    out_size = conv_out_size(in_size, max(kh, kw), stride, padding)
    params: list[ParamTensor] = [ParamTensor(f"{name}.weight", (out_ch, in_ch, kh, kw))]
    if bias:
        params.append(ParamTensor(f"{name}.bias", (out_ch,)))
    flops = 2.0 * kh * kw * in_ch * out_ch * out_size * out_size
    return LayerSpec(name, "conv", tuple(params), flops), out_size


def batchnorm(name: str, channels: int, spatial_size: int) -> LayerSpec:
    """BatchNorm layer: affine weight+bias tensors, ~4 FLOPs per element."""
    params = (
        ParamTensor(f"{name}.weight", (channels,)),
        ParamTensor(f"{name}.bias", (channels,)),
    )
    flops = 4.0 * channels * spatial_size * spatial_size
    return LayerSpec(name, "bn", params, flops)


def linear(name: str, in_features: int, out_features: int, bias: bool = True) -> LayerSpec:
    """Fully-connected layer."""
    params: list[ParamTensor] = [
        ParamTensor(f"{name}.weight", (out_features, in_features))
    ]
    if bias:
        params.append(ParamTensor(f"{name}.bias", (out_features,)))
    return LayerSpec(name, "fc", tuple(params), 2.0 * in_features * out_features)
