"""Unit tests for unit helpers, configs, and the error hierarchy."""

import pytest

from repro import errors
from repro.config import TrainingConfig
from repro.errors import ConfigurationError
from repro.quantities import (
    GB,
    Gbps,
    KB,
    MB,
    Mbps,
    fmt_bandwidth,
    fmt_bytes,
    fmt_seconds,
    ms,
    to_Gbps,
    to_MB,
    to_Mbps,
    to_ms,
    us,
)


class TestQuantities:
    def test_data_units_binary(self):
        assert KB == 1024
        assert MB == 1024**2
        assert GB == 1024**3

    def test_bandwidth_units_decimal_bits(self):
        assert 1 * Gbps == 1e9 / 8
        assert 1 * Mbps == 1e6 / 8

    def test_roundtrips(self):
        assert to_MB(5 * MB) == 5.0
        assert to_ms(5 * ms) == pytest.approx(5.0)
        assert to_Gbps(2 * Gbps) == pytest.approx(2.0)
        assert to_Mbps(500 * Mbps) == pytest.approx(500.0)

    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(9.8 * MB) == "9.8 MB"
        assert fmt_bytes(2.5 * GB) == "2.5 GB"

    def test_fmt_seconds(self):
        assert fmt_seconds(5 * us) == "5.0 us"
        assert fmt_seconds(12.3 * ms) == "12.3 ms"
        assert fmt_seconds(2.5) == "2.50 s"

    def test_fmt_bandwidth(self):
        assert fmt_bandwidth(3 * Gbps) == "3.00 Gbps"
        assert fmt_bandwidth(500 * Mbps) == "500.0 Mbps"


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(batch_size=0),
            dict(n_workers=0),
            dict(n_iterations=0),
            dict(jitter_std=-0.1),
            dict(monitor_interval=0.0),
            dict(sync_mode="bogus"),
            dict(ssp_staleness=-1),
            dict(worker_compute_scale={5: 1.0}),
            dict(worker_compute_scale={0: 0.0}),
        ],
    )
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainingConfig(**kwargs)

    def test_effective_policy_default(self):
        from repro.agg.policies import ModulePrefixPolicy

        assert isinstance(TrainingConfig().effective_policy(), ModulePrefixPolicy)

    def test_effective_policy_override(self):
        from repro.agg.policies import TimeWindowPolicy

        policy = TimeWindowPolicy(1e-3)
        assert TrainingConfig(agg_policy=policy).effective_policy() is policy


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            errors.ConfigurationError,
            errors.SchedulingError,
            errors.SimulationError,
            errors.ProfileError,
        ):
            assert issubclass(exc, errors.ReproError)

    def test_configuration_error_is_value_error(self):
        assert issubclass(errors.ConfigurationError, ValueError)

    def test_simulation_error_is_runtime_error(self):
        assert issubclass(errors.SimulationError, RuntimeError)
