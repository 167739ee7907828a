"""Property test: the gradient timelines the simulator writes in place
equal the ones rebuilt from its trace, and tracing does not move them.

For any strategy on the star, a 2-server sharded tier or the ring, with
2–4 workers: a traced run's ``recorder_from_trace(trace.events)`` yields
the same gradient records as the run's own recorder, and those equal the
records of the same run untraced.  Records compare by ``repr``, so every
field must match to the last bit.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.trainer import run_training
from repro.metrics.timeline import recorder_from_trace
from repro.runner.registry import build_factory
from repro.workloads.presets import STRATEGY_BUILDERS, paper_config

BACKENDS = {
    "star": {},
    "sharded": {"n_servers": 2},
    "ring": {"backend": "allreduce"},
}


def _records(recorder) -> list[str]:
    return [repr(r) for r in recorder.gradient_records()]


@settings(max_examples=30, deadline=None)
@given(
    strategy=st.sampled_from(sorted(STRATEGY_BUILDERS)),
    backend=st.sampled_from(sorted(BACKENDS)),
    n_workers=st.integers(2, 4),
)
def test_trace_mirrors_the_gradient_logs(strategy, backend, n_workers):
    config = paper_config(
        "resnet18", 16, n_workers=n_workers, n_iterations=3, **BACKENDS[backend]
    )
    traced = run_training(replace(config, trace=True), build_factory(strategy))
    untraced = run_training(config, build_factory(strategy))
    written = _records(traced.recorder)
    assert written
    assert _records(recorder_from_trace(traced.trace.events)) == written
    assert _records(untraced.recorder) == written
