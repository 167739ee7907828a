"""Validation tests for the declarative fault plans."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import (
    FaultPlan,
    LinkFlap,
    MessageDrops,
    PSStall,
    ServerCrash,
    WorkerCrash,
    retry_timeout,
)


class TestWorkerCrash:
    def test_valid(self):
        crash = WorkerCrash(worker=1, at=2.0, restart_after=0.5)
        assert crash.worker == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(worker=-1, at=1.0, restart_after=0.5),
            dict(worker=0, at=-0.1, restart_after=0.5),
            dict(worker=0, at=1.0, restart_after=0.0),
            dict(worker=0, at=1.0, restart_after=-1.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorkerCrash(**kwargs)


class TestLinkFlap:
    def test_end_property(self):
        flap = LinkFlap(start=4.0, duration=1.5, factor=0.3)
        assert flap.end == pytest.approx(5.5)
        assert flap.worker is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(start=-1.0, duration=1.0, factor=0.5),
            dict(start=0.0, duration=0.0, factor=0.5),
            dict(start=0.0, duration=1.0, factor=0.0),  # full cut not allowed
            dict(start=0.0, duration=1.0, factor=1.5),
            dict(start=0.0, duration=1.0, factor=0.5, worker=-2),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            LinkFlap(**kwargs)


class TestMessageDrops:
    def test_defaults_are_noop_over_all_time(self):
        drops = MessageDrops()
        assert drops.is_noop
        assert drops.end == math.inf

    def test_any_positive_probability_is_not_noop(self):
        assert not MessageDrops(ack=0.01).is_noop

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(push=1.0),  # certainty would retry forever
            dict(pull=-0.1),
            dict(ack=2.0),
            dict(start=-1.0),
            dict(start=2.0, end=2.0),
            dict(worker=-1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            MessageDrops(**kwargs)


class TestPSStall:
    def test_end_property(self):
        stall = PSStall(at=6.0, duration=0.3)
        assert stall.end == pytest.approx(6.3)

    @pytest.mark.parametrize(
        "kwargs", [dict(at=-1.0, duration=0.3), dict(at=0.0, duration=0.0)]
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            PSStall(**kwargs)


class TestRetryPolicy:
    def test_timeouts_back_off_exponentially_and_cap(self):
        delays = [retry_timeout(attempt) for attempt in range(8)]
        assert delays == [0.025, 0.05, 0.1, 0.2, 0.4, 0.5, 0.5, 0.5]


class TestFaultPlan:
    def test_lists_normalize_to_tuples(self):
        plan = FaultPlan(crashes=[WorkerCrash(worker=0, at=1.0, restart_after=0.5)])
        assert isinstance(plan.crashes, tuple)

    def test_empty_plan_is_empty(self):
        assert FaultPlan().is_empty

    def test_noop_drops_keep_plan_empty(self):
        assert FaultPlan(drops=[MessageDrops()]).is_empty

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(crashes=[WorkerCrash(worker=0, at=1.0, restart_after=0.5)]),
            dict(flaps=[LinkFlap(start=0.0, duration=1.0, factor=0.5)]),
            dict(drops=[MessageDrops(push=0.1)]),
            dict(ps_stalls=[PSStall(at=1.0, duration=0.2)]),
        ],
    )
    def test_any_fault_makes_plan_nonempty(self, kwargs):
        assert not FaultPlan(**kwargs).is_empty

    def test_duplicate_crash_worker_rejected(self):
        with pytest.raises(ConfigurationError, match="multiple crashes"):
            FaultPlan(
                crashes=[
                    WorkerCrash(worker=0, at=1.0, restart_after=0.5),
                    WorkerCrash(worker=0, at=3.0, restart_after=0.5),
                ]
            )

    def test_overlapping_ps_stalls_rejected(self):
        with pytest.raises(ConfigurationError, match="overlap"):
            FaultPlan(
                ps_stalls=[
                    PSStall(at=1.0, duration=1.0),
                    PSStall(at=1.5, duration=1.0),
                ]
            )

    def test_validate_workers_checks_every_reference(self):
        plan = FaultPlan(crashes=[WorkerCrash(worker=3, at=1.0, restart_after=0.5)])
        plan.validate_workers(4)  # in range: fine
        with pytest.raises(ConfigurationError, match="worker 3"):
            plan.validate_workers(3)
        with pytest.raises(ConfigurationError):
            FaultPlan(
                flaps=[LinkFlap(start=0.0, duration=1.0, factor=0.5, worker=5)]
            ).validate_workers(2)
        with pytest.raises(ConfigurationError):
            FaultPlan(drops=[MessageDrops(push=0.1, worker=9)]).validate_workers(2)


class TestValidateTopology:
    def test_ps_star_accepts_the_full_cocktail(self):
        plan = FaultPlan(
            crashes=[WorkerCrash(worker=0, at=1.0, restart_after=0.1)],
            drops=[MessageDrops(push=0.1, pull=0.1, ack=0.1)],
            ps_stalls=[PSStall(at=2.0, duration=0.5)],
        )
        plan.validate_topology(n_workers=2)  # no raise

    def test_sharded_tier_checks_server_references(self):
        plan = FaultPlan(
            server_crashes=[ServerCrash(server=1, at=1.0, failover_after=0.2)],
            ps_stalls=[PSStall(at=2.0, duration=0.5, server=1)],
        )
        plan.validate_topology(n_workers=2, n_servers=2)  # no raise
        with pytest.raises(ConfigurationError, match="server 1"):
            plan.validate_topology(n_workers=2, n_servers=1)
        stall_only = FaultPlan(ps_stalls=[PSStall(at=2.0, duration=0.5, server=3)])
        with pytest.raises(ConfigurationError, match="server 3"):
            stall_only.validate_topology(n_workers=2, n_servers=2)

    def test_allreduce_rejects_ps_leg_faults(self):
        for plan, fragment in (
            (FaultPlan(drops=[MessageDrops(pull=0.1)]), "pull/ack"),
            (FaultPlan(drops=[MessageDrops(ack=0.1)]), "pull/ack"),
            (FaultPlan(ps_stalls=[PSStall(at=1.0, duration=0.5)]), "stall"),
            (
                FaultPlan(
                    server_crashes=[
                        ServerCrash(server=0, at=1.0, failover_after=0.2)
                    ]
                ),
                "server crash",
            ),
        ):
            with pytest.raises(ConfigurationError, match=fragment):
                plan.validate_topology(n_workers=4, backend="allreduce")

    def test_allreduce_accepts_push_drops_and_crashes(self):
        plan = FaultPlan(
            crashes=[WorkerCrash(worker=1, at=1.0, restart_after=0.1)],
            drops=[MessageDrops(push=0.1)],
            flaps=[LinkFlap(start=2.0, duration=0.5, factor=0.3)],
        )
        plan.validate_topology(n_workers=4, backend="allreduce")  # no raise

    def test_allreduce_requires_a_survivor(self):
        plan = FaultPlan(
            crashes=[
                WorkerCrash(worker=0, at=1.0, restart_after=0.1),
                WorkerCrash(worker=1, at=2.0, restart_after=0.1),
            ]
        )
        with pytest.raises(ConfigurationError, match="survivor"):
            plan.validate_topology(n_workers=2, backend="allreduce")
        plan.validate_topology(n_workers=3, backend="allreduce")  # no raise

    def test_worker_references_checked_on_every_backend(self):
        plan = FaultPlan(
            crashes=[WorkerCrash(worker=5, at=1.0, restart_after=0.1)]
        )
        for backend in ("ps", "allreduce"):
            with pytest.raises(ConfigurationError, match="worker 5"):
                plan.validate_topology(n_workers=2, backend=backend)
