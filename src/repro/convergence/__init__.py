"""Statistical convergence under stale gradients.

The paper's future work proposes validating Prophet with the ASP model.
ASP/SSP raise *throughput* (no BSP barrier — see
``repro run asp``) but apply **stale** gradients, which costs
*statistical* progress per iteration.  Whether asynchrony wins therefore
depends on **time-to-accuracy** = (seconds per iteration) × (iterations
to reach the target loss), not on throughput alone.

This package supplies the statistical half: a stale-gradient SGD
simulator on a controllable quadratic objective
(:mod:`repro.convergence.sgd`), fed with the staleness distribution the
cluster simulation actually produced
(:attr:`repro.cluster.ps.ParameterServer.staleness_samples`).  The
combined analysis lives in :mod:`repro.experiments.convergence`.
"""

from repro.convergence.sgd import (
    QuadraticProblem,
    StaleSGDResult,
    run_stale_sgd,
    empirical_staleness_sampler,
)

__all__ = [
    "QuadraticProblem",
    "StaleSGDResult",
    "run_stale_sgd",
    "empirical_staleness_sampler",
]
