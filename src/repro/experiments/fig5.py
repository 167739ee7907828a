"""Fig. 5 — illustrative example: the four strategies on a tiny job.

The paper walks a 3-gradient toy example: default MXNet lets gradient 1's
long transfer block gradient 0; P3 slices everything (fine preemption,
extra overhead); ByteScheduler uses a fixed credit; Prophet assembles
exactly as many partitions of gradient 1 as fit before gradient 0 is
generated.  We reproduce it end-to-end: a 3-tensor synthetic model run
through the full simulator under each strategy, reporting gradient 0's
wait time and the iteration time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agg.policies import ExplicitGroupsPolicy
from repro.cluster.trainer import run_training
from repro.config import TrainingConfig
from repro.models.device import DeviceSpec
from repro.models.layers import LayerSpec, ModelSpec, ParamTensor
from repro.models.registry import available_models, register_model
from repro.quantities import Gbps, MB
from repro.workloads.presets import PAPER_TCP, STRATEGY_FACTORIES

__all__ = ["Fig5Row", "run", "TOY_MODEL_NAME"]

TOY_MODEL_NAME = "toy-fig5"


def _build_toy_model() -> ModelSpec:
    """Three single-tensor layers; gradient 2 generated first, 0 last."""
    flops = 6e9  # per layer per sample; sets the inter-block intervals
    layers = tuple(
        LayerSpec(
            name=f"layer{i}",
            kind="fc",
            params=(ParamTensor(f"layer{i}.weight", (int(size // 4),)),),
            fwd_flops=flops,
        )
        for i, size in enumerate((8 * MB, 16 * MB, 8 * MB))
    )
    return ModelSpec(name=TOY_MODEL_NAME, input_size=1, layers=layers)


if TOY_MODEL_NAME not in available_models():
    register_model(TOY_MODEL_NAME, _build_toy_model)


@dataclass(frozen=True)
class Fig5Row:
    """One strategy's outcome on the toy job."""

    grad0_wait_ms: float
    grad0_update_ms: float
    iteration_ms: float


def run(
    bandwidth: float = 1 * Gbps, n_iterations: int = 8, seed: int = 0
) -> dict[str, Fig5Row]:
    """Each of the four strategies on the 3-gradient toy job (one worker)."""
    config = TrainingConfig(
        model=TOY_MODEL_NAME,
        batch_size=16,
        n_workers=1,
        n_iterations=n_iterations,
        bandwidth=bandwidth,
        tcp=PAPER_TCP,
        device=DeviceSpec(name="toy", peak_flops=9.6e12, efficiency=0.2),
        agg_policy=ExplicitGroupsPolicy(((2,), (1,), (0,))),
        seed=seed,
        jitter_std=0.0,
    )
    rows = {}
    for name, factory in STRATEGY_FACTORIES.items():
        result = run_training(config, factory)
        recs = {
            r.grad: r for r in result.gradient_records(worker=0, iteration=n_iterations - 2)
        }
        g0 = recs[0]
        rows[name] = Fig5Row(
            grad0_wait_ms=(g0.push_start - g0.ready) * 1e3,
            grad0_update_ms=(g0.pull_end - g0.ready) * 1e3,
            iteration_ms=float(result.iteration_spans(0, skip=2).mean()) * 1e3,
        )
    return rows
