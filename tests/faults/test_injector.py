"""Unit tests for the fault injector and the flapped bandwidth schedule."""

import pytest

from repro.errors import SimulationError
from repro.faults.injector import FaultInjector, FlappedSchedule
from repro.faults.plan import FaultPlan, LinkFlap, MessageDrops, PSStall
from repro.net.link import BandwidthSchedule
from repro.quantities import Gbps
from repro.sim.engine import Engine
from repro.sim.rng import spawn_rng


def make_injector(plan, n_workers=2, seed=0):
    return FaultInjector(Engine(), plan, n_workers, spawn_rng(seed, "faults"))


class TestFlappedSchedule:
    def test_flap_applies_only_inside_window(self):
        base = BandwidthSchedule.constant(2 * Gbps)
        flapped = FlappedSchedule(
            base, (LinkFlap(start=1.0, duration=2.0, factor=0.5),)
        )
        assert flapped.value(0.5) == pytest.approx(2 * Gbps)
        assert flapped.value(1.5) == pytest.approx(1 * Gbps)
        assert flapped.value(3.0) == pytest.approx(2 * Gbps)  # end exclusive

    def test_overlapping_flaps_compound(self):
        base = BandwidthSchedule.constant(1 * Gbps)
        flapped = FlappedSchedule(
            base,
            (
                LinkFlap(start=0.0, duration=4.0, factor=0.5),
                LinkFlap(start=1.0, duration=1.0, factor=0.5),
            ),
        )
        assert flapped.value(1.5) == pytest.approx(0.25 * Gbps)


class TestRollDrop:
    def test_zero_probability_never_drops(self):
        inj = make_injector(FaultPlan(drops=[MessageDrops(push=0.0)]))
        assert not any(inj.roll_drop("push", 0) for _ in range(100))
        assert inj.stats["push_drops"] == 0

    def test_drop_rate_tracks_probability(self):
        inj = make_injector(FaultPlan(drops=[MessageDrops(push=0.3)]))
        n = 2000
        dropped = sum(inj.roll_drop("push", 0) for _ in range(n))
        assert 0.2 < dropped / n < 0.4
        assert inj.stats["push_drops"] == dropped

    def test_window_gates_drops(self):
        engine = Engine()
        plan = FaultPlan(drops=[MessageDrops(push=0.9, start=5.0, end=6.0)])
        inj = FaultInjector(engine, plan, 1, spawn_rng(0, "faults"))
        assert not any(inj.roll_drop("push", 0) for _ in range(50))  # t=0 < start

    def test_worker_scoped_drops_spare_other_workers(self):
        inj = make_injector(FaultPlan(drops=[MessageDrops(push=0.9, worker=1)]))
        assert not any(inj.roll_drop("push", 0) for _ in range(50))
        assert any(inj.roll_drop("push", 1) for _ in range(50))

    def test_independent_specs_combine(self):
        inj = make_injector(
            FaultPlan(drops=[MessageDrops(push=0.5), MessageDrops(push=0.5)])
        )
        n = 2000
        dropped = sum(inj.roll_drop("push", 0) for _ in range(n))
        assert 0.65 < dropped / n < 0.85  # 1 - 0.5 * 0.5 = 0.75

    def test_unknown_leg_raises(self):
        inj = make_injector(FaultPlan())
        with pytest.raises(SimulationError):
            inj.roll_drop("gossip", 0)

    def test_same_seed_same_drop_sequence(self):
        plan = FaultPlan(drops=[MessageDrops(push=0.5)])

        def rolls(seed):
            inj = make_injector(plan, seed=seed)
            return [inj.roll_drop("push", 0) for _ in range(20)]

        assert rolls(3) == rolls(3)
        assert rolls(3) != rolls(4)


class TestPSReleaseDelay:
    def test_delay_defers_to_window_end(self):
        inj = make_injector(FaultPlan(ps_stalls=[PSStall(at=2.0, duration=1.0)]))
        assert inj.ps_release_delay(1.0) == 0.0
        assert inj.ps_release_delay(2.2) == pytest.approx(0.8)
        assert inj.ps_release_delay(3.0) == 0.0  # end exclusive


class TestInstall:
    def test_install_twice_raises(self):
        inj = make_injector(FaultPlan())
        inj.install([], {})
        with pytest.raises(SimulationError, match="twice"):
            inj.install([], {})

    def test_out_of_range_plan_rejected_at_construction(self):
        from repro.errors import ConfigurationError
        from repro.faults.plan import WorkerCrash

        plan = FaultPlan(crashes=[WorkerCrash(worker=5, at=1.0, restart_after=0.5)])
        with pytest.raises(ConfigurationError):
            make_injector(plan, n_workers=2)


def test_count_accumulates():
    inj = make_injector(FaultPlan())
    inj.count("push_retries")
    inj.count("push_retries", 3)
    assert inj.stats["push_retries"] == 4
