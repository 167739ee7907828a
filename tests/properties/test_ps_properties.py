"""Property tests: the parameter server's heap release path against the
per-pull scan it replaced.

:class:`ReferencePS` keeps the original release rule: after every push it
re-tests each waiting pull of each touched gradient, one ``min()`` over
the workers per test, and schedules one engine event per released pull
(the real server batches a push's releases into one event).  Its
aggregation state is one flat ``(iteration, gradient)`` map, pruned by a
scan.  Both servers are driven by the same random input — N workers,
random gradient slicing (with offsets off by less than the PS's offset
tolerance), multi-segment units, BSP/SSP/ASP, through ``receive_push`` or
through ``deliver_push`` with out-of-order and duplicate sequence numbers
— and must agree on every release (worker, iteration, gradient, offset,
firing time) in firing order, on ``pending_pulls`` and every key's
``aggregated_bytes`` after every push, and on the staleness samples.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.messages import PullUnit
from repro.cluster.ps import UPDATE_DELAY, ParameterServer
from repro.errors import SimulationError
from repro.sched.base import Segment, TransferUnit
from repro.sim.engine import Engine

_TOL = 1e-9
#: Gaps between pushes: same instant, inside one update delay, after it.
GAPS = (0.0, 0.4 * UPDATE_DELAY, 2 * UPDATE_DELAY)


class ReferencePS(ParameterServer):
    """The per-pull scan: one waiting list per gradient, re-tested in full,
    and one release event per pull."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lists = defaultdict(list)
        self._bytes: dict[tuple[int, int], list[float]] = {}
        self._max_push_iteration = -1

    def aggregated_bytes(self, iteration: int, grad: int) -> float:
        received = self._bytes.get((iteration, grad))
        return min(received) if received is not None else 0.0

    def _releasable(self, pull: PullUnit) -> bool:
        seg = pull.segment
        if self.sync_mode == "bsp":
            received = self._bytes.get((pull.iteration, seg.grad))
            if received is None:
                return False
            return min(received) >= seg.offset + seg.nbytes - _TOL
        if self.sync_mode == "asp":
            return True
        bound = pull.iteration - self.staleness - 1
        if bound < 0:
            return True
        progress = self._progress.get(seg.grad)
        if progress is None:
            return False
        return min(progress) >= bound

    def _respond(self, pull: PullUnit) -> None:
        if self.sync_mode != "bsp":
            progress = self._progress.get(pull.segment.grad)
            slowest = min(progress) if progress is not None else -1
            self.staleness_samples.append(max(0, pull.iteration - 1 - slowest))
        self.engine.schedule_after(
            UPDATE_DELAY, self._workers[pull.worker].enqueue_pull, pull
        )

    def receive_push(self, worker, iteration, unit):
        if self.sync_mode == "bsp" and iteration > self._max_push_iteration:
            self._max_push_iteration = iteration
            for key in [k for k in self._bytes if k[0] <= iteration - 2]:
                del self._bytes[key]
        touched = set()
        for seg in unit.segments:
            key = (iteration, seg.grad)
            received = self._bytes.get(key)
            if received is None:
                received = self._bytes[key] = [0.0] * self.n_workers
            size = self._sizes_list[seg.grad]
            if abs(received[worker] - seg.offset) > max(_TOL, 1e-6 * seg.nbytes):
                raise SimulationError("out-of-order offset")
            received[worker] += seg.nbytes
            if received[worker] > size * (1 + 1e-9) + _TOL:
                raise SimulationError("over-push")
            if received[worker] >= size - _TOL:
                progress = self._progress.setdefault(seg.grad, [-1] * self.n_workers)
                progress[worker] = max(progress[worker], iteration)
            self.total_push_bytes += seg.nbytes
            touched.add(seg.grad)
            pull = PullUnit(worker, iteration, seg)
            if self._releasable(pull):
                self._respond(pull)
            else:
                self._lists[seg.grad].append(pull)
                self._n_waiting += 1
        for grad in touched:
            still_waiting = []
            for pull in self._lists[grad]:
                if self._releasable(pull):
                    self._respond(pull)
                    self._n_waiting -= 1
                else:
                    still_waiting.append(pull)
            self._lists[grad] = still_waiting


class _Sink:
    """Worker stand-in logging each pull when its release event fires."""

    def __init__(self, engine: Engine, log: list):
        self.engine = engine
        self.log = log

    def enqueue_pull(self, pull: PullUnit) -> None:
        seg = pull.segment
        self.log.append(
            ("release", pull.worker, pull.iteration, seg.grad, seg.offset, self.engine.now)
        )


@st.composite
def push_streams(draw, max_iterations: int):
    """Gradient sizes plus each worker's in-order stream of (iteration, unit)."""
    n_workers = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=3))
    n_iterations = draw(st.integers(1, max_iterations))
    streams = []
    for _ in range(n_workers):
        units = []
        for iteration in range(n_iterations):
            segs = []
            for grad in draw(st.permutations(range(len(sizes)))):
                cuts = draw(st.lists(st.floats(0.05, 0.95), max_size=3, unique=True))
                offset = 0.0
                for end in sorted(c * sizes[grad] for c in cuts) + [float(sizes[grad])]:
                    nbytes = end - offset
                    if nbytes <= 0:
                        continue
                    # An offset inside the PS's 1e-6 relative tolerance
                    # (but past _TOL) can hold the pusher's own pull back
                    # until a later segment of the same push covers it.
                    slack = draw(st.sampled_from((0.0, 0.0, 0.5e-6 * nbytes)))
                    segs.append(Segment(grad=grad, offset=offset + slack, nbytes=nbytes))
                    offset += nbytes
            unit: list[Segment] = []
            for seg in segs:
                if unit and draw(st.booleans()):
                    units.append((iteration, TransferUnit(segments=tuple(unit))))
                    unit = []
                unit.append(seg)
            units.append((iteration, TransferUnit(segments=tuple(unit))))
        streams.append(units)
    return sizes, streams


def _completed(stream, cursor: int) -> int:
    """Highest iteration a worker has fully pushed at ``cursor``."""
    if cursor == len(stream):
        return stream[-1][0]
    return stream[cursor][0] - 1


def _receive_calls(data, streams, bsp: bool) -> list:
    """Interleave the workers' streams into ``receive_push`` calls.

    Under BSP a worker may push iteration k only once every worker has
    fully pushed k-2: the PS prunes keys at or below k-2 on the first
    push of k, as a real BSP run guarantees it may.  Two iterations'
    pulls can still wait on one gradient at once.
    """
    cursors = [0] * len(streams)
    calls = []
    while True:
        floor = min(_completed(s, c) for s, c in zip(streams, cursors))
        eligible = [
            w
            for w, (s, c) in enumerate(zip(streams, cursors))
            if c < len(s) and (not bsp or s[c][0] - 2 <= floor)
        ]
        if not eligible:
            return calls
        w = data.draw(st.sampled_from(eligible))
        iteration, unit = streams[w][cursors[w]]
        cursors[w] += 1
        calls.append((w, iteration, unit, None, data.draw(st.sampled_from(GAPS))))


def _deliver_calls(data, streams) -> list:
    """Each worker's messages numbered in stream order, then delivered
    with adjacent swaps (a message overtaking a dropped predecessor) and
    retransmissions of already-delivered sequence numbers."""
    queues = []
    for units in streams:
        order = list(range(len(units)))
        for i in range(len(order) - 1):
            if data.draw(st.booleans()):
                order[i], order[i + 1] = order[i + 1], order[i]
        queue = []
        for seq in order:
            queue.append(seq)
            if data.draw(st.integers(0, 3)) == 0:
                queue.append(data.draw(st.sampled_from(queue)))
        queues.append(queue)
    calls = []
    while any(queues):
        w = data.draw(st.sampled_from([w for w, q in enumerate(queues) if q]))
        seq = queues[w].pop(0)
        iteration, unit = streams[w][seq]
        calls.append((w, iteration, unit, seq, data.draw(st.sampled_from(GAPS))))
    return calls


def _drive(cls, mode: str, staleness: int, sizes, n_workers: int, calls):
    engine = Engine()
    ps = cls(
        engine,
        n_workers=n_workers,
        sizes=np.asarray(sizes, dtype=float),
        sync_mode=mode,
        staleness=staleness,
    )
    log: list = []
    ps.attach_workers([_Sink(engine, log) for _ in range(n_workers)])
    keys = sorted({(call[1], g) for call in calls for g in range(len(sizes))})
    try:
        for worker, iteration, unit, seq, gap in calls:
            if seq is None:
                ps.receive_push(worker, iteration, unit)
            else:
                log.append(("new", ps.deliver_push(worker, iteration, unit, seq)))
            log.append(("pending", ps.pending_pulls))
            log.append(("aggregated", [ps.aggregated_bytes(*key) for key in keys]))
            engine.run(until=engine.now + gap)
        engine.run()
    except SimulationError:
        log.append(("error",))
    return log, ps.staleness_samples


def _assert_same(mode: str, staleness: int, sizes, streams, calls) -> None:
    n_workers = len(streams)
    new = _drive(ParameterServer, mode, staleness, sizes, n_workers, calls)
    ref = _drive(ReferencePS, mode, staleness, sizes, n_workers, calls)
    assert new == ref


@pytest.mark.parametrize("mode", ["bsp", "ssp", "asp"])
@given(plan=push_streams(max_iterations=3), staleness=st.integers(0, 1), data=st.data())
@settings(max_examples=80, deadline=None)
def test_receive_push_releases_like_the_scan(mode, plan, staleness, data):
    sizes, streams = plan
    calls = _receive_calls(data, streams, bsp=mode == "bsp")
    _assert_same(mode, staleness, sizes, streams, calls)


@pytest.mark.parametrize("mode", ["bsp", "ssp", "asp"])
@given(plan=push_streams(max_iterations=2), staleness=st.integers(0, 1), data=st.data())
@settings(max_examples=50, deadline=None)
def test_deliver_push_releases_like_the_scan(mode, plan, staleness, data):
    # Two iterations keep BSP pruning (keys <= k-2) out of reach however
    # far the reorder buffer lets one worker run ahead.
    sizes, streams = plan
    _assert_same(mode, staleness, sizes, streams, _deliver_calls(data, streams))
