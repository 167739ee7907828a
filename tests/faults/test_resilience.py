"""End-to-end resilience tests: training survives the fault plan, the
conservation laws hold under retries, and the injection layer is provably
inert when unused."""

from dataclasses import replace

import pytest

from repro.cluster.trainer import Trainer, run_training
from repro.faults.plan import (
    FaultPlan,
    LinkFlap,
    MessageDrops,
    PSStall,
    WorkerCrash,
)
from repro.workloads.presets import (
    fifo_factory,
    p3_factory,
    prophet_factory,
)


@pytest.fixture(scope="module")
def clean_end_time(tiny_config_module):
    return run_training(tiny_config_module, fifo_factory()).end_time


@pytest.fixture(scope="module")
def tiny_config_module():
    # Module-scoped twin of the function-scoped ``tiny_config`` fixture so
    # the clean reference run is simulated once for the whole module.
    from repro.agg.policies import ExplicitGroupsPolicy
    from repro.config import TrainingConfig
    from repro.models.device import DeviceSpec
    from repro.net.tcp import TCPParams
    from repro.quantities import Gbps
    from tests.conftest import TINY_MODEL_NAME

    return TrainingConfig(
        model=TINY_MODEL_NAME,
        batch_size=8,
        n_workers=2,
        n_iterations=6,
        bandwidth=1 * Gbps,
        tcp=TCPParams(rtt=0.2e-3, fixed_overhead=0.1e-3, goodput=0.8),
        device=DeviceSpec(name="test-gpu", peak_flops=4e12, efficiency=0.25),
        agg_policy=ExplicitGroupsPolicy(((5, 6, 7), (3, 4), (2,), (0, 1))),
        seed=7,
        jitter_std=0.01,
    )


def run_with(config, plan, factory=None):
    trainer = Trainer(replace(config, faults=plan), factory or fifo_factory())
    result = trainer.run()
    return trainer, result


def assert_conservation(trainer, config):
    """Every gradient byte was credited exactly once per worker-iteration,
    no matter how many times its carrier message was (re)transmitted."""
    expected = (
        float(trainer.ps.sizes.sum()) * config.n_workers * config.n_iterations
    )
    assert trainer.ps.total_push_bytes == pytest.approx(expected, rel=1e-9)


class TestInertness:
    @pytest.mark.parametrize("factory_fn", [fifo_factory, prophet_factory])
    def test_empty_plan_is_bit_identical_to_no_plan(
        self, tiny_config_module, factory_fn
    ):
        base = run_training(tiny_config_module, factory_fn())
        empty = run_training(
            replace(tiny_config_module, faults=FaultPlan()), factory_fn()
        )
        assert empty.end_time == base.end_time  # exact, not approx
        assert empty.training_rate() == base.training_rate()
        assert base.fault_stats is None and empty.fault_stats is None

    def test_noop_drop_plan_wires_no_injector(self, tiny_config_module):
        trainer, result = run_with(
            tiny_config_module, FaultPlan(drops=[MessageDrops()])
        )
        assert trainer.injector is None
        assert result.fault_stats is None


class TestMessageLoss:
    @pytest.fixture(scope="class")
    def lossy(self, tiny_config_module):
        plan = FaultPlan(drops=[MessageDrops(push=0.05, pull=0.05, ack=0.05)])
        return run_with(tiny_config_module, plan), tiny_config_module

    def test_completes_and_conserves_bytes(self, lossy):
        (trainer, result), config = lossy
        assert result.end_time > 0
        assert_conservation(trainer, config)

    def test_retries_and_drops_counted(self, lossy):
        (trainer, result), _ = lossy
        stats = result.fault_stats
        assert stats["push_drops"] > 0
        assert stats["push_retries"] >= stats["push_drops"]
        assert stats["pull_retries"] == stats["pull_drops"]

    def test_every_ack_drop_produces_exactly_one_duplicate(self, lossy):
        """At-most-once application: a lost ack forces a retransmission of
        an already-applied message, which the PS must dedup by seq."""
        (trainer, result), _ = lossy
        stats = result.fault_stats
        assert stats["ack_drops"] > 0
        assert stats["duplicate_pushes"] == stats["ack_drops"]

    def test_losses_slow_training_down(self, lossy, clean_end_time):
        (_, result), _ = lossy
        assert result.end_time > clean_end_time


class TestCrashRestart:
    @pytest.fixture(scope="class")
    def crashed(self, tiny_config_module, clean_end_time):
        plan = FaultPlan(
            crashes=[
                WorkerCrash(
                    worker=1,
                    at=0.3 * clean_end_time,
                    restart_after=0.15 * clean_end_time,
                )
            ]
        )
        return run_with(tiny_config_module, plan), tiny_config_module

    def test_completes_and_conserves_bytes(self, crashed):
        (trainer, result), config = crashed
        assert_conservation(trainer, config)

    def test_crash_and_restart_logged(self, crashed, clean_end_time):
        (_, result), _ = crashed
        assert result.fault_stats["crashes"] == 1
        assert result.fault_stats["restarts"] == 1
        kinds = [kind for _, kind, _ in result.fault_log]
        assert kinds.index("fault.crash") < kinds.index("fault.restart")
        assert result.end_time > clean_end_time  # the outage costs time

    def test_p3_survives_crash_with_reordering(self, tiny_config_module):
        """P3's partition slicing exercises the PS reorder buffer: a
        retransmitted partition may be overtaken by its successor."""
        plan = FaultPlan(
            crashes=[WorkerCrash(worker=0, at=0.05, restart_after=0.05)],
            drops=[MessageDrops(push=0.08)],
        )
        trainer, result = run_with(tiny_config_module, plan, p3_factory())
        assert result.end_time > 0
        assert_conservation(trainer, tiny_config_module)

    def test_crash_after_completion_is_moot(self, tiny_config_module, clean_end_time):
        plan = FaultPlan(
            crashes=[
                WorkerCrash(
                    worker=0, at=10 * clean_end_time, restart_after=0.1
                )
            ]
        )
        _, result = run_with(tiny_config_module, plan)
        assert result.fault_stats["crashes"] == 0


class TestFlapAndStall:
    def test_flap_slows_training_and_is_counted(
        self, tiny_config_module, clean_end_time
    ):
        plan = FaultPlan(
            flaps=[
                LinkFlap(
                    start=0.2 * clean_end_time,
                    duration=0.3 * clean_end_time,
                    factor=0.2,
                )
            ]
        )
        trainer, result = run_with(tiny_config_module, plan)
        assert result.fault_stats["link_flaps"] == 1
        assert result.end_time > clean_end_time
        assert_conservation(trainer, tiny_config_module)

    def test_ps_stall_defers_but_loses_nothing(
        self, tiny_config_module, clean_end_time
    ):
        stall = 0.2 * clean_end_time
        plan = FaultPlan(
            ps_stalls=[PSStall(at=0.4 * clean_end_time, duration=stall)]
        )
        trainer, result = run_with(tiny_config_module, plan)
        assert result.fault_stats["ps_stalls"] == 1
        assert result.end_time > clean_end_time
        assert_conservation(trainer, tiny_config_module)


class TestShardedTier:
    """The same fault plan semantics, lifted onto the key-sharded tier:
    per-shard stalls pin to one PS, a server crash loses in-flight pushes
    until the warm standby answers, and byte conservation holds across
    the whole tier."""

    @pytest.fixture(scope="class")
    def sharded_faulty(self, tiny_config_module):
        from repro.faults.plan import ServerCrash

        plan = FaultPlan(
            ps_stalls=[PSStall(at=0.4, duration=0.2, server=0)],
            server_crashes=[
                ServerCrash(server=1, at=0.9, failover_after=0.4)
            ],
            drops=[MessageDrops(push=0.03)],
        )
        config = replace(tiny_config_module, n_servers=2, faults=plan)
        trainer = Trainer(config, fifo_factory())
        result = trainer.run()
        return trainer, result, config

    def test_completes_with_all_iterations(self, sharded_faulty):
        _, result, config = sharded_faulty
        for w in range(config.n_workers):
            assert (
                len(result.recorder.worker_iterations(w))
                == config.n_iterations
            )

    def test_tier_conserves_bytes_across_shards(self, sharded_faulty):
        """Every gradient byte is credited exactly once per
        worker-iteration across the whole tier, despite drops, the
        outage's lost pushes and the resulting retransmissions."""
        trainer, _, config = sharded_faulty
        total = sum(s.total_push_bytes for s in trainer.servers)
        expected = (
            sum(float(s.sizes.sum()) for s in trainer.servers)
            * config.n_workers
            * config.n_iterations
        )
        assert total == pytest.approx(expected, rel=1e-9)

    def test_per_shard_events_counted_and_logged(self, sharded_faulty):
        _, result, _ = sharded_faulty
        stats = result.fault_stats
        assert stats["ps_stalls"] == 1
        assert stats["server_crashes"] == 1
        assert stats["failovers"] == 1
        kinds = [kind for _, kind, _ in result.fault_log]
        assert kinds.index("fault.server_crash") < kinds.index("fault.failover")

    def test_outage_loses_pushes_that_reliable_delivery_replays(
        self, sharded_faulty
    ):
        _, result, _ = sharded_faulty
        stats = result.fault_stats
        assert stats["lost_pushes"] > 0
        assert stats["push_retries"] >= stats["lost_pushes"]

    def test_stall_pinned_to_one_shard_leaves_the_other_untouched(
        self, tiny_config_module
    ):
        """A stall on shard 0 defers only shard 0's releases: shard 1's
        run is bit-identical to the no-fault build."""
        config = replace(tiny_config_module, n_servers=2)
        clean = run_training(config, fifo_factory())
        stalled = run_training(
            replace(
                config,
                faults=FaultPlan(
                    ps_stalls=[PSStall(at=0.5, duration=0.5, server=0)]
                ),
            ),
            fifo_factory(),
        )
        assert stalled.fault_stats["ps_stalls"] == 1
        assert stalled.end_time > clean.end_time


class TestFaultsAfterCompletion:
    """Once the last worker finishes, the injector's pending flap, stall,
    server-crash and restart events are cancelled: ``fault_stats`` and
    ``fault_log`` count only the faults that hit the run."""

    @pytest.mark.parametrize(
        "strategy,end_time",
        [("prophet", 2.597156905112909), ("bytescheduler", 2.6430617852529448)],
    )
    def test_sharded_chaos_counts_only_faults_inside_the_run(
        self, strategy, end_time
    ):
        # The flap (4.0-5.0 s) and the PS stall (6.0-6.3 s) of the chaos
        # plan both fall after this run's end.
        from repro.experiments.chaos import default_plan
        from repro.quantities import Gbps
        from repro.runner.registry import build_factory
        from repro.workloads.presets import paper_config

        config = paper_config(
            "resnet18",
            16,
            bandwidth=2 * Gbps,
            n_workers=2,
            n_iterations=6,
            n_servers=2,
            faults=default_plan(crash_at=0.8, restart_after=0.3, drop=0.03),
        )
        trainer = Trainer(config, build_factory(strategy))
        result = trainer.run()
        assert result.end_time == end_time
        assert result.fault_stats["crashes"] == 1
        assert result.fault_stats["restarts"] == 1
        assert result.fault_stats["link_flaps"] == 0
        assert result.fault_stats["ps_stalls"] == 0
        assert all(t <= end_time for t, _, _ in result.fault_log)
        assert trainer.engine.now == end_time

    @pytest.mark.parametrize("backend", ["ps", "allreduce"])
    def test_shared_engine_cancels_a_finished_jobs_faults(
        self, tiny_config_module, backend
    ):
        """On an engine that keeps running after the job (a fleet's), the
        job's late flap, stall, server crash and restart never fire.  A
        crashed collective rank leaves the ring, so its job finishes
        before the restart; a PS worker must restart to finish."""
        from repro.faults.plan import ServerCrash
        from repro.sim.engine import Engine

        late = 100.0
        flaps = [LinkFlap(start=late, duration=1.0, factor=0.5)]
        if backend == "ps":
            plan = FaultPlan(
                crashes=[WorkerCrash(worker=1, at=0.5, restart_after=0.1)],
                flaps=flaps,
                ps_stalls=[PSStall(at=late, duration=1.0)],
                server_crashes=[ServerCrash(server=0, at=late, failover_after=1.0)],
            )
            config = replace(tiny_config_module, n_servers=2, faults=plan)
        else:
            plan = FaultPlan(
                crashes=[WorkerCrash(worker=1, at=0.5, restart_after=late)],
                flaps=flaps,
            )
            config = replace(
                tiny_config_module, n_workers=3, backend="allreduce", faults=plan
            )
        engine = Engine()
        trainer = Trainer(config, fifo_factory(), engine=engine)
        trainer.start()
        engine.schedule(2 * late, lambda: None)  # another tenant's event
        engine.run()
        result = trainer.finalize()
        assert engine.now == 2 * late
        assert result.end_time < late
        assert result.fault_stats["crashes"] == 1
        for key in ("link_flaps", "ps_stalls", "server_crashes", "failovers"):
            assert result.fault_stats[key] == 0, key
        assert result.fault_stats["restarts"] == (backend == "ps")
        assert all(t <= result.end_time for t, _, _ in result.fault_log)
