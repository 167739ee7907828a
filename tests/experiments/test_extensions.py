"""Tier-1 ids of the future-work and extended-baseline checks.

Each test runs the rows of ``tests/claims/test_paper_claims.py`` that hold
its assertions; the bounds live only in that table.
"""

from tests.claims.test_paper_claims import checks


class TestAspExperiment:
    test_all_modes_complete = checks("asp.modes", "asp.rates-positive")
    test_relaxed_sync_never_slower = checks(
        "asp.prophet-not-slower", "asp.bytescheduler-not-slower"
    )
    test_stepwise_pattern_is_sync_independent = checks("stepwise.kvstore-staircase")


class TestDevicesExperiment:
    test_faster_devices_much_faster_compute = checks(
        "devices.m60-vs-v100-compute", "devices.a100-vs-v100-compute"
    )
    test_comm_bound_regime_on_fast_gpus = checks(
        "devices.m60-tie", "devices.v100-priority-pays", "devices.a100-priority-pays"
    )
    test_absolute_rates_scale_with_device = checks("devices.v100-rate")


class TestExtendedBaselines:
    test_mgwfbp_between_fifo_and_prophet_at_crossover = checks(
        "mgwfbp.above-fifo", "mgwfbp.below-prophet"
    )


class TestDynamicBandwidth:
    test_prophet_adapts_best = checks("dynamic.vs-bytescheduler", "dynamic.vs-mxnet")


class TestChaosExperiment:
    test_every_strategy_survives_the_cocktail = checks(
        "chaos.goodput-positive", "chaos.goodput-at-most-clean"
    )
    test_recovery_time_spans_the_outage = checks(
        "chaos.recovery-spans-outage", "chaos.recovery-bounded"
    )
    test_faults_were_actually_injected = checks("chaos.crashes", "chaos.restarts", "chaos.drops")
