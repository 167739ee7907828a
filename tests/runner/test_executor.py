"""Fan-out executor: job resolution, caching, and parallel == serial.

The parallel tests use a real registry model (``resnet18``) rather than
the conftest tiny model — spawn-started children import the package
fresh and never execute the test conftest, so only models registered by
the package itself exist there.
"""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import run_strategies
from repro.quantities import Gbps
from repro.runner import ResultCache, RunSpec, fingerprint, resolve_jobs, run_grid
from repro.runner.executor import JOBS_ENV
from repro.workloads.presets import paper_config

fingerprint_module = import_module("repro.runner.fingerprint")


def _config(seed: int = 0, **overrides):
    return paper_config(
        "resnet18",
        16,
        bandwidth=2 * Gbps,
        n_workers=2,
        n_iterations=4,
        seed=seed,
        record_gradients=False,
        **overrides,
    )


# ----------------------------------------------------------------------
# Job resolution
# ----------------------------------------------------------------------
def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert resolve_jobs() == 1
    monkeypatch.setenv(JOBS_ENV, "3")
    assert resolve_jobs() == 3
    assert resolve_jobs(2) == 2  # explicit argument wins


def test_resolve_jobs_rejects_garbage(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "many")
    with pytest.raises(ConfigurationError):
        resolve_jobs()
    with pytest.raises(ConfigurationError):
        resolve_jobs(0)


def test_import_leaves_the_fleet_package_unloaded():
    # Fleet specs import ``repro.fleet`` on first use; single-run sweeps
    # never pay for it.
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, repro.runner; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.fleet')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# Caching semantics (inline path — no subprocesses)
# ----------------------------------------------------------------------
def test_cache_hit_returns_identical_result(tmp_path):
    spec = RunSpec(config=_config(), strategy="mxnet-fifo")
    store = ResultCache(tmp_path)

    cold = run_grid([spec], cache=store)
    assert store.misses == 1 and store.hits == 0

    warm = run_grid([spec], cache=store)
    assert store.hits == 1
    assert warm == cold


def test_changed_source_digest_misses_the_cache(tmp_path, monkeypatch):
    spec = RunSpec(config=_config(), strategy="mxnet-fifo")
    store = ResultCache(tmp_path)
    run_grid([spec], cache=store)
    run_grid([spec], cache=store)
    assert (store.hits, store.misses) == (1, 1)

    monkeypatch.setattr(fingerprint_module, "source_digest", lambda: "edited")
    run_grid([spec], cache=store)
    assert (store.hits, store.misses) == (1, 2)


def test_cache_false_bypasses_store(tmp_path, monkeypatch):
    def unexpected():
        raise AssertionError("uncached runs must not digest the source")

    monkeypatch.setattr(fingerprint_module, "source_digest", unexpected)
    spec = RunSpec(config=_config(), strategy="mxnet-fifo")
    run_grid([spec], cache=False, cache_dir=tmp_path)
    assert not list(tmp_path.rglob("*.json"))


def test_no_cache_env_disables(tmp_path, monkeypatch):
    from repro.runner.executor import NO_CACHE_ENV

    monkeypatch.setenv(NO_CACHE_ENV, "1")
    spec = RunSpec(config=_config(), strategy="mxnet-fifo")
    run_grid([spec], cache_dir=tmp_path)
    assert not list(tmp_path.rglob("*.json"))


def test_different_seeds_do_not_share_entries(tmp_path):
    store = ResultCache(tmp_path)
    specs = [
        RunSpec(config=_config(seed=0), strategy="mxnet-fifo"),
        RunSpec(config=_config(seed=1), strategy="mxnet-fifo"),
    ]
    assert fingerprint(specs[0]) != fingerprint(specs[1])
    results = run_grid(specs, cache=store)
    assert store.misses == 2
    assert results[0] != results[1]


def test_corrupted_cache_entry_falls_back_to_simulation(tmp_path):
    spec = RunSpec(config=_config(), strategy="mxnet-fifo")
    store = ResultCache(tmp_path)
    cold = run_grid([spec], cache=store)

    (entry,) = tmp_path.rglob("*.json")
    entry.write_text("garbage")

    again = run_grid([spec], cache=store)
    assert again == cold


# ----------------------------------------------------------------------
# Parallel == serial
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_parallel_grid_is_bit_identical_to_serial(tmp_path):
    configs = [_config(seed=0), _config(seed=1)]
    specs = [
        RunSpec(config=config, strategy=strategy)
        for config in configs
        for strategy in ("prophet", "mxnet-fifo")
    ]
    serial = run_grid(specs, jobs=1, cache=False)
    parallel = run_grid(specs, jobs=4, cache=False)
    assert parallel == serial


@pytest.mark.slow
def test_run_strategies_parallel_matches_serial(tmp_path):
    config = _config()
    serial = run_strategies(
        config, strategies=("prophet", "mxnet-fifo"), jobs=1, cache=False
    )
    parallel = run_strategies(
        config, strategies=("prophet", "mxnet-fifo"), jobs=4, cache=False
    )
    assert parallel.rates == serial.rates
    assert parallel.config == serial.config


@pytest.mark.slow
def test_parallel_run_populates_cache_for_serial_rerun(tmp_path):
    store = ResultCache(tmp_path)
    specs = [
        RunSpec(config=_config(seed=s), strategy="mxnet-fifo") for s in (0, 1)
    ]
    cold = run_grid(specs, jobs=2, cache=store)
    assert store.misses == 2

    warm = run_grid(specs, jobs=1, cache=store)
    assert store.hits == 2
    assert warm == cold
