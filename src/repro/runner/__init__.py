"""Parallel, cached experiment runner.

The paper's whole evaluation (Sec. 5) is an embarrassingly parallel sweep
of independent, seed-deterministic simulations.  This subsystem makes
those sweeps fast and rerunnable:

* :class:`RunSpec` / :class:`RunResult` — plain-data description of one
  run and the scalar projection of its outcome (:mod:`repro.runner.spec`;
  a :class:`~repro.fleet.spec.FleetSpec` and its ``FleetRunResult`` are
  the same pair for a whole fleet);
* :func:`build_factory`, resolving a preset strategy's scheduler factory
  by name in worker processes (:mod:`repro.runner.registry`);
* stable content fingerprints over config + strategy + fault plan + seed
  + version + package source digest (:mod:`repro.runner.fingerprint`);
* a content-addressed on-disk result cache (:mod:`repro.runner.cache`);
* :func:`run_grid`, the deterministic fan-out executor gluing them
  together for any mix of run and fleet specs
  (:mod:`repro.runner.executor`).

``REPRO_JOBS=N`` parallelizes every ported experiment harness without
code changes; ``REPRO_NO_CACHE=1`` / ``REPRO_CACHE_DIR=...`` control the
cache.  See EXPERIMENTS.md ("Parallel execution and the result cache").
"""

from repro.runner.cache import CacheStats, ResultCache, default_cache_dir
from repro.runner.executor import (
    JOBS_ENV,
    NO_CACHE_ENV,
    execute,
    resolve_jobs,
    run_grid,
    scoped_environ,
    shutdown_pools,
)
from repro.runner.fingerprint import canonical, fingerprint, key_payload
from repro.runner.registry import build_factory
from repro.runner.spec import RunResult, RunSpec

__all__ = [
    "RunSpec",
    "RunResult",
    "run_grid",
    "execute",
    "resolve_jobs",
    "scoped_environ",
    "shutdown_pools",
    "ResultCache",
    "CacheStats",
    "default_cache_dir",
    "fingerprint",
    "canonical",
    "key_payload",
    "build_factory",
    "JOBS_ENV",
    "NO_CACHE_ENV",
]
