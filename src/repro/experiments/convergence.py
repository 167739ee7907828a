"""Time-to-accuracy under BSP / SSP / ASP — completing future-work item 1.

Throughput alone flatters asynchrony (``repro run asp``); what a
practitioner cares about is **time to a target loss**.  This runner closes
the loop:

1. simulate the cluster under each sync mode → seconds/iteration and the
   *observed* gradient-staleness distribution at the PS;
2. run stale SGD on a reference quadratic with that staleness
   distribution → iterations to reach the target loss fraction;
3. multiply.

The expected shape: ASP gains throughput but pays statistical efficiency;
with mild jitter (small staleness) it still wins time-to-accuracy, and the
gap narrows as staleness grows — SSP sits between.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.trainer import Trainer
from repro.convergence.sgd import (
    QuadraticProblem,
    empirical_staleness_sampler,
    run_stale_sgd,
)
from repro.quantities import Gbps
from repro.workloads.presets import paper_config, prophet_factory

__all__ = ["ConvergenceRow", "run"]


@dataclass(frozen=True)
class ConvergenceRow:
    sync_mode: str
    seconds_per_iteration: float
    mean_staleness: float
    iterations_to_target: int | None
    time_to_target_s: float | None


def run(
    target_fraction: float = 0.01,
    bandwidth: float = 3 * Gbps,
    n_iterations: int = 16,
    jitter_std: float = 0.05,
    straggler_scale: float = 1.4,
    sgd_steps: int = 4000,
    seed: int = 0,
) -> list[ConvergenceRow]:
    """Prophet-scheduled cluster under each sync mode → time-to-loss.

    One worker computes ``straggler_scale`` slower: without persistent
    skew, ASP workers drift less than one iteration apart and staleness
    stays zero (asynchrony is then a free win); the straggler is what
    makes the throughput/staleness trade-off bind.
    """
    base = paper_config(
        "resnet50",
        64,
        bandwidth=bandwidth,
        n_iterations=n_iterations,
        seed=seed,
        jitter_std=jitter_std,
        worker_compute_scale={0: straggler_scale},
        record_gradients=False,
    )
    problem = QuadraticProblem()
    rows = []
    for mode in ("bsp", "ssp", "asp"):
        trainer = Trainer(replace(base, sync_mode=mode), prophet_factory())
        result = trainer.run()
        # Cluster-mean seconds per worker-iteration (one model update per
        # worker round).  Under BSP every worker runs at the straggler's
        # pace; under ASP/SSP the fast workers' quicker rounds pull the
        # mean down — that is asynchrony's throughput win.
        sec_per_iter = base.batch_size / result.training_rate(skip=2)
        samples = trainer.ps.staleness_samples
        sampler = empirical_staleness_sampler(
            samples, np.random.default_rng(seed + 1)
        )
        sgd = run_stale_sgd(problem, sampler, n_steps=sgd_steps, seed=seed)
        iters = None if sgd.diverged else sgd.iterations_to(target_fraction)
        rows.append(
            ConvergenceRow(
                sync_mode=mode,
                seconds_per_iteration=sec_per_iter,
                mean_staleness=sgd.mean_staleness,
                iterations_to_target=iters,
                time_to_target_s=(
                    None if iters is None else iters * sec_per_iter
                ),
            )
        )
    return rows
