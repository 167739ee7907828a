"""Traced ``wait`` spans agree with the gradient records on every backend.

A ``wait`` span is the paper's ``t(i) − c(i)`` (Fig. 11's wait time)
for one gradient in one iteration, and the gradient records hold the
same two marks.  For every worker of a traced run on the star, a 2-server
sharded tier, the ring and a hierarchical allreduce (groups of 2), under
each of the five strategies, the set of ``(grad, iteration, ts, dur)``
over the worker's wait spans must equal the set of ``(grad, iteration,
ready, push_start − ready)`` over its records that waited.  The
collective traces one ``collective/wait`` track for all ranks, which is
compared with each worker.  Durations are compared, not ``ts + dur``,
because float rounding differs between the two.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster.trainer import run_training
from repro.runner.registry import build_factory
from repro.workloads.presets import STRATEGY_BUILDERS

BACKENDS = {
    "star": {},
    "sharded": {"n_servers": 2},
    "ring": {"backend": "allreduce", "collective": "ring"},
    "hierarchical": {
        "backend": "allreduce",
        "collective": "hierarchical",
        "collective_group_size": 2,
    },
}


def _wait_track(backend: str, worker: int, n_servers: int) -> list[str]:
    if backend in ("ring", "hierarchical"):
        return ["collective/wait"]
    if n_servers == 1:
        return [f"worker{worker}/wait"]
    return [f"worker{worker}/s{s}/wait" for s in range(n_servers)]


@pytest.mark.parametrize("strategy", sorted(STRATEGY_BUILDERS))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_wait_spans_match_gradient_records(tiny_config, backend, strategy):
    config = replace(tiny_config, n_workers=4, trace=True, **BACKENDS[backend])
    result = run_training(config, build_factory(strategy))
    waits = result.trace.by_category("wait")
    assert waits
    for worker in range(config.n_workers):
        tracks = _wait_track(backend, worker, config.n_servers)
        spans = {
            (e.args["grad"], e.args["iteration"], e.ts, e.dur)
            for e in waits
            if e.track in tracks
        }
        records = {
            (r.grad, r.iteration, r.ready, r.push_start - r.ready)
            for r in result.gradient_records(worker)
            if r.push_start > r.ready
        }
        assert records
        assert spans == records
