"""Unit tests for the parameter server's BSP aggregation."""

import numpy as np
import pytest

from repro.cluster.ps import UPDATE_DELAY, ParameterServer
from repro.errors import SimulationError
from repro.sched.base import Segment, TransferUnit
from repro.sim.engine import Engine


class FakeWorker:
    def __init__(self):
        self.pulls = []

    def enqueue_pull(self, pull):
        self.pulls.append(pull)


@pytest.fixture
def setup():
    engine = Engine()
    sizes = np.array([100.0, 200.0, 300.0])
    ps = ParameterServer(engine, n_workers=2, sizes=sizes)
    workers = [FakeWorker(), FakeWorker()]
    ps.attach_workers(workers)
    return engine, ps, workers


def _unit(grad, offset, nbytes):
    return TransferUnit(segments=(Segment(grad=grad, offset=offset, nbytes=nbytes),))


def test_pull_released_only_after_all_workers_push(setup):
    engine, ps, workers = setup
    ps.receive_push(0, 0, _unit(1, 0.0, 200.0))
    engine.run()
    assert workers[0].pulls == []  # worker 1 has not pushed yet
    ps.receive_push(1, 0, _unit(1, 0.0, 200.0))
    engine.run()
    assert len(workers[0].pulls) == 1
    assert len(workers[1].pulls) == 1
    assert workers[0].pulls[0].segment.grad == 1


def test_update_delay_applied(setup):
    engine, ps, workers = setup
    ps.receive_push(0, 0, _unit(0, 0.0, 100.0))
    ps.receive_push(1, 0, _unit(0, 0.0, 100.0))
    t_push = engine.now
    engine.run()
    assert engine.now == t_push + UPDATE_DELAY
    assert len(workers[0].pulls) == 1


def test_partial_ranges_aggregate_independently(setup):
    engine, ps, workers = setup
    ps.receive_push(0, 0, _unit(2, 0.0, 150.0))
    ps.receive_push(1, 0, _unit(2, 0.0, 100.0))
    engine.run()
    # Worker 1's first 100 bytes are aggregated; worker 0's 150 are not.
    assert len(workers[1].pulls) == 1
    assert workers[1].pulls[0].total_bytes == 100.0
    assert len(workers[0].pulls) == 0
    ps.receive_push(1, 0, _unit(2, 100.0, 200.0))
    engine.run()
    assert len(workers[0].pulls) == 1  # range 0-150 now covered


def test_iterations_are_independent(setup):
    engine, ps, workers = setup
    ps.receive_push(0, 0, _unit(0, 0.0, 100.0))
    ps.receive_push(1, 1, _unit(0, 0.0, 100.0))
    engine.run()
    assert workers[0].pulls == []
    assert workers[1].pulls == []
    assert ps.aggregated_bytes(0, 0) == 0.0
    assert ps.aggregated_bytes(1, 0) == 0.0


def test_multi_segment_unit_releases_per_key(setup):
    engine, ps, workers = setup
    unit = TransferUnit(
        segments=(
            Segment(grad=0, offset=0.0, nbytes=100.0),
            Segment(grad=1, offset=0.0, nbytes=200.0),
        )
    )
    ps.receive_push(0, 0, unit)
    ps.receive_push(1, 0, _unit(0, 0.0, 100.0))
    engine.run()
    # Gradient 0 aggregated -> released for both; gradient 1 still waiting.
    grads_w0 = [p.segment.grad for p in workers[0].pulls]
    assert grads_w0 == [0]
    assert ps.pending_pulls == 1  # worker 0's gradient-1 pull


def test_out_of_order_offset_raises(setup):
    engine, ps, workers = setup
    with pytest.raises(SimulationError):
        ps.receive_push(0, 0, _unit(0, 50.0, 10.0))


def test_over_push_raises(setup):
    engine, ps, workers = setup
    ps.receive_push(0, 0, _unit(0, 0.0, 100.0))
    with pytest.raises(SimulationError):
        ps.receive_push(0, 0, _unit(0, 100.0, 1.0))


def test_total_push_bytes_accumulates(setup):
    engine, ps, workers = setup
    ps.receive_push(0, 0, _unit(0, 0.0, 100.0))
    ps.receive_push(1, 0, _unit(0, 0.0, 100.0))
    assert ps.total_push_bytes == 200.0


def test_attach_wrong_worker_count_raises():
    engine = Engine()
    ps = ParameterServer(engine, n_workers=3, sizes=np.ones(2))
    with pytest.raises(SimulationError):
        ps.attach_workers([FakeWorker()])


def test_completing_push_schedules_one_release_event():
    """The push that completes a range for N workers releases N pulls
    through one engine event, in worker order."""
    engine = Engine()
    n = 4
    ps = ParameterServer(engine, n_workers=n, sizes=np.array([100.0]))
    workers = [FakeWorker() for _ in range(n)]
    ps.attach_workers(workers)
    for w in range(n - 1):
        ps.receive_push(w, 0, _unit(0, 0.0, 100.0))
    assert engine.pending() == 0
    ps.receive_push(n - 1, 0, _unit(0, 0.0, 100.0))
    assert engine.pending() == 1
    engine.run()
    assert engine.events_processed == 1
    assert [len(w.pulls) for w in workers] == [1] * n
