"""Deterministic fan-out executor for grids of run specs.

:func:`run_grid` takes a list of specs — :class:`~repro.runner.spec.RunSpec`
single runs and :class:`~repro.fleet.spec.FleetSpec` fleets, mixed
freely — and returns their scalar results (:class:`~repro.runner.spec.RunResult`
or :class:`~repro.fleet.spec.FleetRunResult`) in the same order,
consulting the content-addressed result cache first and fanning the
misses out over a ``ProcessPoolExecutor``:

* **Spawn-safe by construction.**  Pools use the ``spawn`` start method
  (identical semantics on Linux/macOS/Windows, no inherited locks); the
  only things crossing the boundary are the plain-data spec and scalar
  result — the child resolves the strategy factory by registry name.
* **Determinism.**  Each simulation is fully determined by its spec (the
  engine is seed-deterministic and runs single-threaded inside one
  process), so parallel and serial execution produce bit-identical
  results; only completion *order* varies, and results are re-ordered by
  spec index before returning.
* **Job count.**  ``jobs`` argument > ``REPRO_JOBS`` env > 1.  With one
  job (or a single miss) everything runs inline in this process — no
  pool, no pickling, identical code path to the pre-runner harnesses.
* **Caching.**  On by default (disable per call with ``cache=False`` or
  process-wide with ``REPRO_NO_CACHE=1``).  Hits skip the simulation
  entirely; see :mod:`repro.runner.cache` for invalidation rules.

Worker pools persist across :func:`run_grid` calls (one per job count) so
sweeps that issue many small grids — e.g. Table 2's per-bandwidth
strategy comparisons — pay the interpreter spawn cost once, not per call.
"""

from __future__ import annotations

import atexit
import contextlib
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.cluster.trainer import run_training
from repro.errors import ConfigurationError
from repro.runner.cache import ResultCache
from repro.runner.fingerprint import fingerprint
from repro.runner.registry import build_factory
from repro.runner.spec import RunResult, RunSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.spec import FleetRunResult, FleetSpec

__all__ = [
    "run_grid",
    "execute",
    "resolve_jobs",
    "scoped_environ",
    "shutdown_pools",
]

#: Environment variable supplying the default parallelism.
JOBS_ENV = "REPRO_JOBS"
#: Environment variable disabling the result cache process-wide.
NO_CACHE_ENV = "REPRO_NO_CACHE"


@contextlib.contextmanager
def scoped_environ(updates: Mapping[str, str]) -> Iterator[None]:
    """Set environment variables (e.g. the runner's knobs) for the block,
    then restore each to its value from before, unset ones unset."""
    saved = {key: os.environ.get(key) for key in updates}
    os.environ.update(updates)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective job count: explicit argument > ``REPRO_JOBS`` > 1."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigurationError(
                f"{JOBS_ENV} must be an integer, got {env!r}"
            ) from None
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


def execute(spec: "RunSpec | FleetSpec") -> "RunResult | FleetRunResult":
    """Run one spec in this process and extract its scalars.

    A :class:`RunSpec` is one training run; a
    :class:`~repro.fleet.spec.FleetSpec` is a whole multi-tenant fleet.
    This is the function shipped to pool workers: module-level (hence
    picklable by reference) and dependent only on the spec contents.
    The fleet package is imported here, on first use, so single-run
    sweeps never load it.
    """
    if isinstance(spec, RunSpec):
        factory = build_factory(spec.strategy, spec.kwargs)
        result = run_training(spec.config, factory)
        return RunResult.from_training(result, skip=spec.skip)
    from repro.fleet.simulator import run_fleet
    from repro.fleet.spec import FleetRunResult

    return FleetRunResult.from_result(run_fleet(spec))


def _decoder(spec: "RunSpec | FleetSpec") -> Callable[[Mapping[str, Any]], Any]:
    """The cache payload decoder for ``spec``'s result type."""
    if isinstance(spec, RunSpec):
        return RunResult.from_payload
    from repro.fleet.spec import FleetRunResult

    return FleetRunResult.from_payload


# ----------------------------------------------------------------------
# Persistent pools
# ----------------------------------------------------------------------
_POOLS: dict[int, ProcessPoolExecutor] = {}


def _pool(workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context("spawn")
        )
        _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Shut down every persistent worker pool (registered atexit)."""
    pools = list(_POOLS.values())
    _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


def _resolve_cache(
    cache: bool | ResultCache | None, cache_dir: str | os.PathLike | None
) -> ResultCache | None:
    if isinstance(cache, ResultCache):
        return cache
    if cache is None:
        cache = not os.environ.get(NO_CACHE_ENV, "").strip()
    return ResultCache(cache_dir) if cache else None


def run_grid(
    specs: "Iterable[RunSpec | FleetSpec]",
    *,
    jobs: int | None = None,
    cache: bool | ResultCache | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> "list[RunResult | FleetRunResult]":
    """Execute every spec, in order, with caching and fan-out.

    Returns one result per spec, positionally aligned: a
    :class:`RunResult` for a :class:`RunSpec`, a ``FleetRunResult`` for a
    ``FleetSpec``.  Any child-side error (bad config, scheduler contract
    violation) re-raises here with its original type.
    """
    spec_list: "Sequence[RunSpec | FleetSpec]" = list(specs)
    jobs = resolve_jobs(jobs)
    store = _resolve_cache(cache, cache_dir)

    results: list[Any] = [None] * len(spec_list)
    fps: list[str | None] = [None] * len(spec_list)
    misses: list[int] = []
    for i, spec in enumerate(spec_list):
        if store is not None:
            fps[i] = fingerprint(spec)
            hit = store.get(fps[i], decode=_decoder(spec))
            if hit is not None:
                results[i] = hit
                continue
        misses.append(i)

    if misses:
        if jobs == 1 or len(misses) == 1:
            for i in misses:
                results[i] = execute(spec_list[i])
        else:
            pool = _pool(jobs)
            futures = [(i, pool.submit(execute, spec_list[i])) for i in misses]
            try:
                for i, future in futures:
                    results[i] = future.result()
            except BrokenProcessPool:
                # A worker died (OOM/kill).  Drop the pool so the next
                # grid starts fresh, and fall back to inline execution
                # for whatever is still missing.
                _POOLS.pop(jobs, None)
                for i in misses:
                    if results[i] is None:
                        results[i] = execute(spec_list[i])
        if store is not None:
            for i in misses:
                store.put(fps[i], results[i])
    return results
