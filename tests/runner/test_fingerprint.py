"""Fingerprint stability and sensitivity.

The cache key must be *stable* (same spec -> same key, across kwarg
spellings and process restarts) and *sensitive* (any knob that can change
the simulation's numbers -> different key).  Every sensitivity case here
corresponds to a real staleness bug the cache would otherwise serve.
"""

from __future__ import annotations

from dataclasses import replace
from importlib import import_module

import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, WorkerCrash
from repro.net.link import BandwidthSchedule
from repro.quantities import Gbps, MB
from repro.runner import RunSpec, canonical, fingerprint, key_payload
from repro.workloads.presets import paper_config

# ``repro.runner.fingerprint`` the attribute is the function; this is the module.
fingerprint_module = import_module("repro.runner.fingerprint")


@pytest.fixture
def spec() -> RunSpec:
    config = paper_config("resnet18", 16, n_iterations=4, seed=3)
    return RunSpec(config=config, strategy="prophet")


def test_fingerprint_is_stable(spec):
    assert fingerprint(spec) == fingerprint(spec)
    clone = RunSpec(config=spec.config, strategy="prophet")
    assert fingerprint(clone) == fingerprint(spec)


def test_kwarg_spelling_does_not_matter(spec):
    as_dict = RunSpec(
        config=spec.config,
        strategy="p3",
        strategy_kwargs={"partition_size": 2 * MB},
    )
    as_pairs = RunSpec(
        config=spec.config,
        strategy="p3",
        strategy_kwargs=(("partition_size", 2 * MB),),
    )
    assert fingerprint(as_dict) == fingerprint(as_pairs)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: replace(c, bandwidth=5 * Gbps),
        lambda c: replace(c, batch_size=32),
        lambda c: replace(c, n_iterations=6),
        lambda c: replace(c, seed=4),
        lambda c: replace(c, jitter_std=0.1),
        lambda c: replace(
            c,
            faults=FaultPlan(
                crashes=(WorkerCrash(worker=0, at=1.0, restart_after=0.5),)
            ),
        ),
    ],
    ids=["bandwidth", "batch", "iterations", "seed", "jitter", "fault-plan"],
)
def test_config_changes_invalidate(spec, mutate):
    changed = RunSpec(config=mutate(spec.config), strategy=spec.strategy)
    assert fingerprint(changed) != fingerprint(spec)


def test_strategy_and_kwargs_and_skip_invalidate(spec):
    fp = fingerprint(spec)
    assert fingerprint(RunSpec(config=spec.config, strategy="fifo")) != fp
    assert (
        fingerprint(
            RunSpec(
                config=spec.config,
                strategy="prophet",
                strategy_kwargs={"round_trip_factor": 2.0},
            )
        )
        != fp
    )
    assert fingerprint(RunSpec(config=spec.config, strategy="prophet", skip=1)) != fp


def test_version_invalidates(spec, monkeypatch):
    import repro

    fp = fingerprint(spec)
    monkeypatch.setattr(repro, "__version__", "0.0.0-test")
    assert fingerprint(spec) != fp


def test_source_digest_tracks_every_source_file(tmp_path, monkeypatch):
    import repro

    pkg = tmp_path / "repro"
    (pkg / "sim").mkdir(parents=True)
    (pkg / "__init__.py").write_text("x = 1\n")
    (pkg / "sim" / "engine.py").write_text("y = 2\n")
    monkeypatch.setattr(repro, "__file__", str(pkg / "__init__.py"))
    digest = fingerprint_module.source_digest.__wrapped__  # bypass the memo
    before = digest()
    assert digest() == before
    (pkg / "sim" / "engine.py").write_text("y = 3\n")
    assert digest() != before


def test_bandwidth_schedule_fingerprints(spec):
    sched_a = BandwidthSchedule(((0.0, 3 * Gbps), (2.0, 1 * Gbps)))
    sched_b = BandwidthSchedule(((0.0, 3 * Gbps), (2.0, 2 * Gbps)))
    fp_a = fingerprint(
        RunSpec(config=replace(spec.config, bandwidth=sched_a), strategy="prophet")
    )
    fp_b = fingerprint(
        RunSpec(config=replace(spec.config, bandwidth=sched_b), strategy="prophet")
    )
    assert fp_a != fp_b
    fp_a2 = fingerprint(
        RunSpec(config=replace(spec.config, bandwidth=sched_a), strategy="prophet")
    )
    assert fp_a == fp_a2


def test_callables_are_rejected():
    with pytest.raises(ConfigurationError):
        canonical(lambda: None)


class TestFleetFingerprint:
    def _spec(self, **overrides):
        from repro.fleet import FleetSpec

        defaults = dict(n_jobs=4, policy="fair", strategies=("prophet",))
        defaults.update(overrides)
        return FleetSpec(**defaults)

    def test_stable_and_sensitive(self):
        fp = fingerprint(self._spec())
        assert fingerprint(self._spec()) == fp
        assert fingerprint(self._spec(seed=1)) != fp
        assert fingerprint(self._spec(policy="fifo")) != fp
        assert fingerprint(self._spec(n_jobs=5)) != fp
        assert fingerprint(self._spec(strategies=("prophet", "mg-wfbp"))) != fp

    def test_kind_tag_separates_fleet_from_single_runs(self, spec):
        # The spec's ``__type__`` tag is what keeps the two kinds of
        # cache key apart.
        fleet_tag = key_payload(self._spec())["spec"]["__type__"]
        run_tag = key_payload(spec)["spec"]["__type__"]
        assert fleet_tag == "repro.fleet.spec.FleetSpec"
        assert run_tag == "repro.runner.spec.RunSpec"
