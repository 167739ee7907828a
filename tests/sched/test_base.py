"""Unit tests for the scheduler base class contract."""

import pytest

from repro.agg.kvstore import KVStore
from repro.errors import SchedulingError
from repro.models.compute import build_compute_profile
from repro.sched.base import CommScheduler, Segment, TransferUnit


class WholeTensorScheduler(CommScheduler):
    """Minimal concrete scheduler: highest-priority whole tensor."""

    name = "test-whole"

    def _select(self, now):
        ready = self.ready_grads
        if not ready:
            return None
        grad = ready[0]
        return TransferUnit(
            segments=(Segment(grad=grad, offset=0.0, nbytes=self.size_of(grad)),)
        )


@pytest.fixture
def schedule(tiny_model, tiny_device):
    prof = build_compute_profile(tiny_model, tiny_device, batch_size=8)
    return KVStore().generation_schedule(prof)


@pytest.fixture
def sched(schedule):
    s = WholeTensorScheduler()
    s.begin_iteration(0, schedule, 0.0)
    return s


class TestSegmentAndUnit:
    """Units are plain records: ``commit_unit`` is where they are checked."""

    def test_segment_validation(self, sched):
        sched.gradient_ready(5, 0.1)
        for bad in (
            Segment(grad=5, offset=0.0, nbytes=0.0),
            Segment(grad=5, offset=-1.0, nbytes=10.0),
        ):
            unit = TransferUnit(segments=(bad,))
            with pytest.raises(SchedulingError):
                sched.commit_unit(unit, 0.1)
        assert sched.remaining_bytes(5) == sched.size_of(5)

    def test_empty_unit_rejected(self, sched):
        sched.gradient_ready(5, 0.1)
        with pytest.raises(SchedulingError):
            sched.commit_unit(TransferUnit(segments=()), 0.1)

    def test_unit_aggregates(self):
        unit = TransferUnit(
            segments=(
                Segment(grad=3, offset=0.0, nbytes=100.0),
                Segment(grad=1, offset=0.0, nbytes=50.0),
            )
        )
        assert unit.total_bytes == 150.0
        assert unit.priority == 1
        assert unit.grads == (3, 1)


class TestReadyBookkeeping:
    def test_propose_before_ready_returns_none(self, sched):
        assert sched.propose_unit(0.0) is None

    def test_ready_then_propose(self, sched):
        sched.gradient_ready(5, 0.1)
        unit = sched.propose_unit(0.1)
        assert unit is not None
        assert unit.segments[0].grad == 5

    def test_propose_does_not_consume(self, sched):
        sched.gradient_ready(5, 0.1)
        sched.propose_unit(0.1)
        assert sched.remaining_bytes(5) == sched.size_of(5)

    def test_uncommitted_proposal_leaves_state_unchanged(self, sched):
        for g in (7, 3, 5):
            sched.gradient_ready(g, 0.1)
        before = (
            sched.ready_grads,
            list(sched.ready_by_arrival()),
            [sched.remaining_bytes(g) for g in range(8)],
            sched.pending_bytes,
        )
        first = sched.propose_unit(0.1)
        again = sched.propose_unit(0.2)
        assert again.grads == first.grads
        assert again.total_bytes == first.total_bytes
        assert before == (
            sched.ready_grads,
            list(sched.ready_by_arrival()),
            [sched.remaining_bytes(g) for g in range(8)],
            sched.pending_bytes,
        )

    def test_ready_by_arrival_keeps_generation_order(self, sched):
        for g in (7, 3, 5):
            sched.gradient_ready(g, 0.1)
        assert list(sched.ready_by_arrival()) == [7, 3, 5]
        unit = sched.propose_unit(0.1)  # most urgent: gradient 3
        sched.commit_unit(unit, 0.1)
        assert list(sched.ready_by_arrival()) == [7, 5]

    def test_commit_debits_bytes(self, sched):
        sched.gradient_ready(5, 0.1)
        unit = sched.propose_unit(0.1)
        sched.commit_unit(unit, 0.1)
        assert sched.remaining_bytes(5) == 0.0
        assert sched.propose_unit(0.2) is None

    def test_double_ready_raises(self, sched):
        sched.gradient_ready(5, 0.1)
        with pytest.raises(SchedulingError):
            sched.gradient_ready(5, 0.2)

    def test_ready_before_begin_raises(self, schedule):
        s = WholeTensorScheduler()
        with pytest.raises(SchedulingError):
            s.gradient_ready(0, 0.0)

    def test_priority_ordering_of_ready_grads(self, sched):
        for g in (7, 3, 5):
            sched.gradient_ready(g, 0.1)
        assert sched.ready_grads == [3, 5, 7]

    def test_pending_bytes_sums_remaining(self, sched, schedule):
        sched.gradient_ready(2, 0.1)
        sched.gradient_ready(3, 0.1)
        assert sched.pending_bytes == pytest.approx(
            schedule.sizes[2] + schedule.sizes[3]
        )


class TestCommitValidation:
    def test_commit_unready_gradient_raises(self, sched):
        unit = TransferUnit(segments=(Segment(grad=1, offset=0.0, nbytes=10.0),))
        with pytest.raises(SchedulingError):
            sched.commit_unit(unit, 0.0)

    def test_commit_wrong_offset_raises(self, sched):
        sched.gradient_ready(5, 0.1)
        unit = TransferUnit(segments=(Segment(grad=5, offset=100.0, nbytes=10.0),))
        with pytest.raises(SchedulingError):
            sched.commit_unit(unit, 0.1)

    def test_commit_oversized_segment_raises(self, sched):
        sched.gradient_ready(5, 0.1)
        size = sched.size_of(5)
        unit = TransferUnit(segments=(Segment(grad=5, offset=0.0, nbytes=size * 2),))
        with pytest.raises(SchedulingError):
            sched.commit_unit(unit, 0.1)

    def test_partial_then_continuation_ok(self, sched):
        sched.gradient_ready(5, 0.1)
        size = sched.size_of(5)
        first = TransferUnit(segments=(Segment(grad=5, offset=0.0, nbytes=size / 2),))
        sched.commit_unit(first, 0.1)
        second = TransferUnit(
            segments=(Segment(grad=5, offset=size / 2, nbytes=size / 2),)
        )
        sched.commit_unit(second, 0.2)
        assert sched.remaining_bytes(5) == 0.0

    def test_out_of_order_continuation_raises(self, sched):
        sched.gradient_ready(5, 0.1)
        size = sched.size_of(5)
        first = TransferUnit(segments=(Segment(grad=5, offset=0.0, nbytes=size / 2),))
        sched.commit_unit(first, 0.1)
        bad = TransferUnit(segments=(Segment(grad=5, offset=0.0, nbytes=size / 4),))
        with pytest.raises(SchedulingError):
            sched.commit_unit(bad, 0.2)


class TestIterationLifecycle:
    def test_begin_with_unsent_bytes_raises(self, sched, schedule):
        sched.gradient_ready(5, 0.1)
        with pytest.raises(SchedulingError):
            sched.begin_iteration(1, schedule, 1.0)

    def test_begin_after_full_drain_ok(self, sched, schedule):
        for g in range(8):
            sched.gradient_ready(g, 0.1)
        while True:
            unit = sched.propose_unit(0.2)
            if unit is None:
                break
            sched.commit_unit(unit, 0.2)
        sched.begin_iteration(1, schedule, 1.0)
        assert sched.ready_grads == []

    def test_default_hooks_are_noops(self, sched, schedule):
        sched.gradient_ready(5, 0.1)
        unit = sched.propose_unit(0.1)
        sched.commit_unit(unit, 0.1)
        sched.unit_sent(unit, 0.2)
        sched.pull_completed(5, 10.0, 0.3)
        sched.grant_probe(0.4)
        sched.end_iteration(0, 1.0, 1.0)
        assert sched.pull_batch_limit(0.0) is None
