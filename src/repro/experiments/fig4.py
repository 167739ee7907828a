"""Fig. 4 — the stepwise pattern of gradient generation.

Reproduces both panels: ResNet-50 under MXNet-style module-boundary
aggregation (a staircase of ~18 blocks over ~160 gradients) and VGG-19
with the exact four blocks the paper reports: {28–37}, {14–27}, {2–13},
{0–1}.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agg.kvstore import KVStore
from repro.agg.policies import ExplicitGroupsPolicy, ModulePrefixPolicy
from repro.agg.stepwise import StepwiseSummary, block_summary
from repro.models.compute import build_compute_profile
from repro.models.registry import get_model
from repro.workloads.presets import paper_device

__all__ = ["Fig4Result", "VGG19_PAPER_GROUPS", "run"]

#: The four VGG-19 gradient blocks the paper reports observing.
VGG19_PAPER_GROUPS: tuple[tuple[int, ...], ...] = (
    tuple(range(28, 38)),
    tuple(range(14, 28)),
    tuple(range(2, 14)),
    (0, 1),
)


@dataclass(frozen=True)
class Fig4Result:
    """Block summaries of the two example models' generation staircases."""

    resnet50_summary: StepwiseSummary
    vgg19_summary: StepwiseSummary


def run(batch_size: int = 64) -> Fig4Result:
    """Compute per-gradient generation times for ResNet-50 and VGG-19."""
    resnet = get_model("resnet50")
    profile = build_compute_profile(resnet, paper_device("resnet50"), batch_size)
    sched = KVStore(policy=ModulePrefixPolicy(2)).generation_schedule(profile)

    vgg = get_model("vgg19")
    vgg_profile = build_compute_profile(vgg, paper_device("vgg19"), batch_size)
    vgg_sched = KVStore(
        policy=ExplicitGroupsPolicy(VGG19_PAPER_GROUPS)
    ).generation_schedule(vgg_profile)

    return Fig4Result(
        resnet50_summary=block_summary(sched.c),
        vgg19_summary=block_summary(vgg_sched.c),
    )
