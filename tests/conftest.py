"""Shared fixtures: tiny models and fast cluster configs.

Unit and integration tests run against a 4-layer synthetic model (8
gradients) so full training simulations complete in milliseconds; the
paper-claims table uses the real model zoo at the scale each claim
states.  The result cache lives in a per-session temporary directory, so
a test run neither reads nor fills the user's ``~/.cache/repro``.
"""

from __future__ import annotations

import pytest

from repro.agg.policies import ExplicitGroupsPolicy
from repro.config import TrainingConfig
from repro.models.device import DeviceSpec
from repro.models.layers import LayerSpec, ModelSpec, ParamTensor
from repro.models.registry import available_models, register_model
from repro.net.tcp import TCPParams
from repro.quantities import Gbps, MB
from repro.runner.cache import CACHE_DIR_ENV

TINY_MODEL_NAME = "tiny-test-model"

#: Per-layer (name, tensor sizes in bytes, per-sample forward FLOPs).
_TINY_LAYERS = (
    ("l0", (2 * MB, 8 * 1024), 4e9),
    ("l1", (6 * MB,), 6e9),
    ("l2", (3 * MB, 64 * 1024), 5e9),
    ("l3", (8 * MB, 4 * 1024, 4 * 1024), 8e9),
)


def _build_tiny_model() -> ModelSpec:
    layers = []
    for name, sizes, flops in _TINY_LAYERS:
        params = tuple(
            ParamTensor(f"{name}.p{i}", (int(size // 4),))
            for i, size in enumerate(sizes)
        )
        layers.append(LayerSpec(name=name, kind="conv", params=params, fwd_flops=flops))
    return ModelSpec(name=TINY_MODEL_NAME, input_size=32, layers=tuple(layers))


if TINY_MODEL_NAME not in available_models():
    register_model(TINY_MODEL_NAME, _build_tiny_model)


@pytest.fixture(scope="session", autouse=True)
def session_result_cache(tmp_path_factory):
    """Point ``run_grid``'s default cache at a fresh session directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(CACHE_DIR_ENV, str(tmp_path_factory.mktemp("results")))
        yield


@pytest.fixture
def tiny_model() -> ModelSpec:
    from repro.models.registry import get_model

    return get_model(TINY_MODEL_NAME)


@pytest.fixture
def tiny_device() -> DeviceSpec:
    return DeviceSpec(name="test-gpu", peak_flops=4e12, efficiency=0.25)


@pytest.fixture
def fast_tcp() -> TCPParams:
    return TCPParams(rtt=0.2e-3, fixed_overhead=0.1e-3, goodput=0.8)


@pytest.fixture
def tiny_config(tiny_device, fast_tcp) -> TrainingConfig:
    """A full-cluster config that simulates in well under a second."""
    return TrainingConfig(
        model=TINY_MODEL_NAME,
        batch_size=8,
        n_workers=2,
        n_iterations=6,
        bandwidth=1 * Gbps,
        tcp=fast_tcp,
        device=tiny_device,
        agg_policy=ExplicitGroupsPolicy(((5, 6, 7), (3, 4), (2,), (0, 1))),
        seed=7,
        jitter_std=0.01,
    )
