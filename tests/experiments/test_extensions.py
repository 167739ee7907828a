"""Shape tests for the future-work experiments and extended baselines."""

import pytest

from repro.experiments import asp, devices
from repro.experiments.common import run_strategies
from repro.quantities import Gbps
from repro.workloads.presets import EXTENDED_FACTORIES, paper_config

pytestmark = pytest.mark.shape


class TestAspExperiment:
    @pytest.fixture(scope="class")
    def rows(self):
        return asp.run(n_iterations=8)

    def test_all_modes_complete(self, rows):
        assert [r.sync_mode for r in rows] == ["bsp", "ssp", "asp"]
        for r in rows:
            assert all(v > 0 for v in r.rates.values())

    def test_relaxed_sync_never_slower(self, rows):
        by_mode = {r.sync_mode: r for r in rows}
        for strategy in ("prophet", "bytescheduler"):
            assert (
                by_mode["asp"].rates[strategy]
                >= by_mode["bsp"].rates[strategy] * 0.98
            )

    def test_stepwise_pattern_is_sync_independent(self):
        """The staircase comes from compute + aggregation, not sync."""
        from repro.agg import KVStore, block_summary
        from repro.models import build_compute_profile, get_model
        from repro.workloads.presets import paper_device

        profile = build_compute_profile(
            get_model("resnet50"), paper_device("resnet50"), 64
        )
        summary = block_summary(KVStore().generation_schedule(profile).c)
        # Identical under every sync mode because it never touches the PS.
        assert summary.num_blocks >= 10


class TestDevicesExperiment:
    @pytest.fixture(scope="class")
    def rows(self):
        return devices.run(n_iterations=8)

    def test_faster_devices_much_faster_compute(self, rows):
        computes = [r.compute_s for r in rows]
        assert computes[0] > 5 * computes[1] > 5 * computes[2] / 5

    def test_comm_bound_regime_on_fast_gpus(self, rows):
        m60, v100, a100 = rows
        assert abs(m60.prophet_vs_mxnet) < 0.05  # compute-bound: tie
        assert v100.prophet_vs_mxnet > 0.15      # comm-bound: priority pays
        assert a100.prophet_vs_mxnet > 0.15

    def test_absolute_rates_scale_with_device(self, rows):
        assert rows[1].rates["prophet"] > 2 * rows[0].rates["prophet"]


class TestExtendedBaselines:
    def test_mgwfbp_between_fifo_and_prophet_at_crossover(self):
        config = paper_config(
            "resnet50", 64, bandwidth=3 * Gbps, n_iterations=10,
            record_gradients=False,
        )
        rates = run_strategies(config, list(EXTENDED_FACTORIES)).rates
        # MG-WFBP fixes FIFO's message overhead but not its priority
        # blindness: above FIFO, at or below Prophet.
        assert rates["mg-wfbp"] > rates["mxnet-fifo"]
        assert rates["mg-wfbp"] <= rates["prophet"] * 1.03


class TestDynamicBandwidth:
    def test_prophet_adapts_best(self):
        from repro.experiments import dynamic

        res = dynamic.run(n_iterations=16)
        assert res.mean_rates["prophet"] >= res.mean_rates["bytescheduler"] * 0.99
        assert res.mean_rates["prophet"] > res.mean_rates["mxnet-fifo"]


class TestChaosExperiment:
    @pytest.fixture(scope="class")
    def res(self):
        from repro.experiments import chaos

        plan = chaos.default_plan(
            crash_at=0.4, restart_after=0.2, drop=0.03,
            flap_at=0.8, flap_duration=0.3, flap_factor=0.5,
            stall_at=1.2, stall_duration=0.1,
        )
        return chaos.run(
            model="resnet18", batch_size=16, n_iterations=5, plan=plan
        )

    def test_every_strategy_survives_the_cocktail(self, res):
        for name, retained in res.goodput_retained.items():
            assert 0.0 < retained <= 1.05, name

    def test_recovery_time_spans_the_outage(self, res):
        # The worker is down for restart_after seconds, so recovery can
        # never beat that; an unbounded recovery would mean a hang.
        for name, rec in res.recovery_time.items():
            assert rec >= 0.2, name
            assert rec < 5.0, name

    def test_faults_were_actually_injected(self, res):
        for name, stats in res.fault_stats.items():
            assert stats["crashes"] == 1, name
            assert stats["restarts"] == 1, name
            assert stats["push_drops"] + stats["pull_drops"] > 0, name
