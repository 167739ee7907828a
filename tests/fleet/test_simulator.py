"""Fleet simulator end-to-end: lifecycle, validation, and determinism."""

import dataclasses
import re

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.faults.plan import FaultPlan, WorkerCrash
from repro.fleet import FleetSimulator, FleetSpec, build_fleet_jobs, run_fleet
from repro.fleet.job import FleetJob
from repro.net.link import BandwidthSchedule
from repro.quantities import Gbps
from repro.workloads.presets import paper_config


def _job(name, arrival=0.0, strategy="prophet", **overrides):
    overrides.setdefault("bandwidth", 3 * Gbps)
    overrides.setdefault("n_workers", 2)
    overrides.setdefault("n_iterations", 3)
    config = paper_config("resnet18", 16, **overrides)
    return FleetJob(name=name, config=config, strategy=strategy, arrival=arrival)


def _spec(**overrides):
    defaults = dict(
        n_jobs=4,
        policy="fair",
        n_hosts=2,
        slots_per_host=2,
        core_bandwidth=8 * Gbps,
        nic_bandwidth=3 * Gbps,
        model="resnet18",
        batch_size=16,
        n_workers=2,
        n_iterations=3,
        strategies=("prophet", "mxnet-fifo"),
        mean_interarrival_s=0.05,
        seed=0,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


class TestValidation:
    def test_empty_fleet_raises(self):
        with pytest.raises(ConfigurationError):
            FleetSimulator([], core_bandwidth=1 * Gbps, n_hosts=1, slots_per_host=1)

    def test_duplicate_names_raise(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            FleetSimulator(
                [_job("a"), _job("a")],
                core_bandwidth=10 * Gbps, n_hosts=2, slots_per_host=2,
            )

    def test_schedule_bandwidth_rejected(self):
        job = _job("a", bandwidth=BandwidthSchedule.constant(1 * Gbps))
        with pytest.raises(ConfigurationError, match="flat NIC bandwidth"):
            FleetSimulator(
                [job], core_bandwidth=10 * Gbps, n_hosts=2, slots_per_host=2
            )

    def test_fault_plans_rejected(self):
        plan = FaultPlan(crashes=(WorkerCrash(worker=0, at=0.5, restart_after=0.1),))
        with pytest.raises(ConfigurationError, match="fault injection"):
            FleetSimulator(
                [_job("a", faults=plan)],
                core_bandwidth=10 * Gbps, n_hosts=2, slots_per_host=2,
            )

    def test_oversized_job_rejected(self):
        with pytest.raises(ConfigurationError, match="slots"):
            FleetSimulator(
                [_job("a", n_workers=4)],
                core_bandwidth=10 * Gbps, n_hosts=1, slots_per_host=2,
            )

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            _spec(policy="lottery")
        with pytest.raises(ConfigurationError):
            _spec(strategies=())
        with pytest.raises(ConfigurationError):
            _spec(n_workers=8)  # exceeds 2x2 slots


class TestLifecycle:
    def test_all_jobs_finish_with_ordered_records(self):
        result = run_fleet(_spec())
        assert result.policy == "fair"
        names = [r.name for r in result.records]
        assert names == sorted(names) and len(names) == 4
        for record in result.records:
            assert record.finished_at > record.placed_at >= record.arrival
            assert record.queueing_delay >= 0.0
            assert record.samples == 16 * 3 * 2
            assert record.iteration_s  # post-warmup spans survive the clamp
        summary = result.summary()
        assert summary["n_jobs"] == 4
        assert 0.0 < summary["jain_fairness"] <= 1.0
        assert summary["goodput_samples_per_s"] > 0

    def test_contention_queues_late_jobs(self):
        # 4 concurrent 2-worker jobs on 2x2 slots: only two fit at a time,
        # so at least one job must wait for a completion tick.
        result = run_fleet(_spec(mean_interarrival_s=0.0))
        delays = [r.queueing_delay for r in result.records]
        assert max(delays) > 0.0
        assert min(delays) == 0.0

    def test_build_fleet_jobs_rotates_strategies_and_tenants(self):
        jobs = build_fleet_jobs(_spec(n_jobs=5))
        assert [j.strategy for j in jobs] == [
            "prophet", "mxnet-fifo", "prophet", "mxnet-fifo", "prophet",
        ]
        assert all(j.user == j.strategy for j in jobs)
        arrivals = [j.arrival for j in jobs]
        assert arrivals == sorted(arrivals) and arrivals[0] == 0.0
        assert [j.config.seed for j in jobs] == [0, 1, 2, 3, 4]


class TestDeterminism:
    def test_same_spec_is_bit_identical(self):
        first = run_fleet(_spec())
        second = run_fleet(_spec())
        assert first.records == second.records
        assert first.events_processed == second.events_processed

    def test_seed_changes_the_fleet(self):
        base = run_fleet(_spec())
        reseeded = run_fleet(_spec(seed=7))
        assert base.records != reseeded.records

    def test_grid_parallel_matches_serial_and_hits_cache(self, tmp_path):
        # One grid mixes single runs and a fleet; each result keeps the
        # type of its spec, in spec order.
        from repro.fleet import FleetRunResult
        from repro.runner import RunResult, RunSpec, run_grid

        config = paper_config(
            "resnet18", 16, bandwidth=3 * Gbps, n_workers=2, n_iterations=4,
            record_gradients=False,
        )
        specs = [RunSpec(config, "prophet"), _spec(), RunSpec(config, "mxnet-fifo")]
        serial = run_grid(specs, jobs=1, cache_dir=tmp_path / "a")
        assert [type(r) for r in serial] == [RunResult, FleetRunResult, RunResult]
        parallel = run_grid(specs, jobs=2, cache_dir=tmp_path / "b")
        assert serial == parallel
        cached = run_grid(specs, jobs=1, cache_dir=tmp_path / "a")
        assert cached == serial
        # The cached round-trip went through JSON: same payloads, same values.
        assert [r.to_payload() for r in cached] == [r.to_payload() for r in serial]

    def test_policy_changes_only_placement_not_job_math(self):
        # Uncontended fleet (capacity for everything): fifo and fair place
        # identically, so the records agree bit for bit.
        spec = _spec(n_jobs=2, n_hosts=4, core_bandwidth=20 * Gbps)
        fifo = run_fleet(dataclasses.replace(spec, policy="fifo"))
        fair = run_fleet(dataclasses.replace(spec, policy="fair"))
        assert fifo.records == fair.records


class TestEventBudget:
    def test_budget_grows_with_jobs_placed_mid_pump(self):
        # `repro fleet --n-jobs 16 --iterations 56 --workers 4`: every job
        # is placed inside the first engine pump, whose limit was the
        # 200k-event floor in force before any job existed.  The run fires
        # 242,470 events, 1.21x that floor.
        result = run_fleet(FleetSpec(n_jobs=16, n_iterations=56, n_workers=4))
        assert len(result.records) == 16
        assert result.events_processed > 200_000

    def test_explicit_budget_still_bounds_the_fleet(self):
        simulator = FleetSimulator(
            build_fleet_jobs(_spec()),
            core_bandwidth=8 * Gbps, n_hosts=2, slots_per_host=2,
        )
        with pytest.raises(
            SimulationError, match="fleet exceeded its event budget"
        ) as info:
            simulator.run(max_events=1_000)
        message = str(info.value)
        # The engine's diagnosis rides along: it names the most common
        # callbacks still queued, with counts.
        assert re.search(r"most common: [\w.<>]+ x\d+", message)
        assert "livelock" not in message
