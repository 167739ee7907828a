"""Property: random small fleets always run to completion.

A fleet's event budget grows as jobs spawn; a frozen budget once killed
mixed fleets mid-run with a false "livelocked" error.  Any small spec —
one to ten jobs, any strategy mix and placement policy, back-to-back or
spread arrivals — must finish every job under ``run_fleet``'s default
budget without a :class:`~repro.errors.SimulationError`.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetSpec, run_fleet

STRATEGIES = ("prophet", "mxnet-fifo", "mg-wfbp", "p3", "bytescheduler")


@settings(max_examples=15, deadline=None)
@given(
    n_jobs=st.integers(1, 10),
    strategies=st.lists(
        st.sampled_from(STRATEGIES), min_size=1, max_size=3, unique=True
    ),
    policy=st.sampled_from(["fifo", "fair", "gang"]),
    n_workers=st.integers(1, 4),
    n_iterations=st.integers(2, 6),
    mean_interarrival_s=st.just(0.0) | st.floats(0.0, 0.5),
    seed=st.integers(0, 2**16),
)
def test_random_small_fleets_finish(
    n_jobs, strategies, policy, n_workers, n_iterations, mean_interarrival_s, seed
):
    spec = FleetSpec(
        n_jobs=n_jobs,
        policy=policy,
        n_workers=n_workers,
        n_iterations=n_iterations,
        strategies=tuple(strategies),
        mean_interarrival_s=mean_interarrival_s,
        batch_size=16,
        seed=seed,
    )
    result = run_fleet(spec)
    assert len(result.records) == n_jobs
    assert len({r.name for r in result.records}) == n_jobs
    for record in result.records:
        assert record.arrival <= record.placed_at <= record.finished_at
        assert math.isfinite(record.finished_at)
        assert record.training_rate > 0
