"""Unit tests for the cProfile harness (``repro profile``)."""

import os
import pstats

import pytest

from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, Experiment
from repro.profiling import profile_experiment
from repro.runner import JOBS_ENV, NO_CACHE_ENV


@pytest.fixture
def stub_experiment(monkeypatch):
    """Install a tiny fake experiment module so the harness runs in ms."""

    def busy_work():
        return sum(i * i for i in range(2_000))

    monkeypatch.setitem(EXPERIMENTS, "stubprof", Experiment(busy_work, ()))
    # The harness mutates the runner env knobs; keep the test hermetic.
    monkeypatch.delenv(JOBS_ENV, raising=False)
    monkeypatch.delenv(NO_CACHE_ENV, raising=False)
    return "stubprof"


@pytest.fixture
def env_experiment(monkeypatch):
    """Fake experiment recording the runner knobs it runs under."""
    seen: list[dict] = []

    def run():
        seen.append({key: os.environ.get(key) for key in (JOBS_ENV, NO_CACHE_ENV)})

    monkeypatch.setitem(EXPERIMENTS, "envprof", Experiment(run, ()))
    monkeypatch.delenv(NO_CACHE_ENV, raising=False)
    return "envprof", seen


class TestProfileExperiment:
    def test_report_fields(self, stub_experiment):
        report = profile_experiment(stub_experiment, top=5)
        assert report.experiment == stub_experiment
        assert report.total_calls > 0
        assert report.total_seconds >= 0.0
        assert "Ordered by: cumulative time" in report.text
        assert report.dump_path is None

    def test_forces_serial_and_no_cache(self, env_experiment, monkeypatch):
        name, seen = env_experiment
        monkeypatch.setenv(JOBS_ENV, "4")
        before = dict(os.environ)
        profile_experiment(name)
        assert seen == [{JOBS_ENV: "1", NO_CACHE_ENV: "1"}]
        assert dict(os.environ) == before

    def test_use_cache_leaves_cache_enabled(self, env_experiment, monkeypatch):
        name, seen = env_experiment
        monkeypatch.setenv(JOBS_ENV, "4")
        before = dict(os.environ)
        profile_experiment(name, use_cache=True)
        assert seen == [{JOBS_ENV: "1", NO_CACHE_ENV: None}]
        assert dict(os.environ) == before

    def test_sort_key_reaches_report(self, stub_experiment):
        report = profile_experiment(stub_experiment, sort="tottime")
        assert "Ordered by: internal time" in report.text

    def test_dump_is_loadable_by_pstats(self, stub_experiment, tmp_path):
        out = tmp_path / "stub.prof"
        report = profile_experiment(stub_experiment, dump=str(out))
        assert report.dump_path == str(out)
        stats = pstats.Stats(str(out))
        assert stats.total_calls > 0

    def test_invalid_sort_raises(self, stub_experiment):
        with pytest.raises(ConfigurationError):
            profile_experiment(stub_experiment, sort="bogus")

    def test_nonpositive_top_raises(self, stub_experiment):
        with pytest.raises(ConfigurationError):
            profile_experiment(stub_experiment, top=0)


@pytest.fixture
def shape_experiment(monkeypatch):
    """Fake experiment whose run records the topology it was given."""
    calls: list[dict] = []

    def run(n_workers=3, backend="ps", **kwargs):
        calls.append({"n_workers": n_workers, "backend": backend, **kwargs})

    monkeypatch.setitem(EXPERIMENTS, "shapeprof", Experiment(run, ()))
    monkeypatch.delenv(JOBS_ENV, raising=False)
    monkeypatch.delenv(NO_CACHE_ENV, raising=False)
    return "shapeprof", calls


class TestTopologyPassthrough:
    def test_overrides_reach_the_entry_point(self, shape_experiment):
        name, calls = shape_experiment
        profile_experiment(
            name,
            overrides={"n_workers": 64, "backend": "allreduce", "n_servers": 4},
        )
        assert calls == [
            {"n_workers": 64, "backend": "allreduce", "n_servers": 4}
        ]

    def test_defaults_untouched_without_overrides(self, shape_experiment):
        name, calls = shape_experiment
        profile_experiment(name)
        assert calls == [{"n_workers": 3, "backend": "ps"}]

    def test_unsupported_override_is_a_hard_error(self, stub_experiment):
        # stubprof's run takes no arguments at all — asking for a
        # fleet shape it cannot honour must fail loudly, not profile
        # the wrong topology.
        with pytest.raises(ConfigurationError, match="n_workers"):
            profile_experiment(stub_experiment, overrides={"n_workers": 64})

    def test_cli_flags_map_to_override_names(self, shape_experiment):
        from repro import cli

        name, calls = shape_experiment
        rc = cli.main(
            [
                "profile",
                name,
                "--workers",
                "64",
                "--backend",
                "allreduce",
                "--n-servers",
                "4",
            ]
        )
        assert rc == 0
        assert calls == [
            {"n_workers": 64, "backend": "allreduce", "n_servers": 4}
        ]
