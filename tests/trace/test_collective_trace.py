"""Pinned Chrome traces of collective runs.

A traced ring run and a traced hierarchical run (4 workers, groups of 2)
on the tiny model export byte-stable Chrome trace JSON.  Their SHA-256
digests are pinned here, so any change to the per-link transfer spans,
the link utilization counters, or the ``comm``, ``assembly`` and
``wait`` spans of the collective tier (event order, timestamps,
arguments) shows up as a digest mismatch.

Both shapes are also pinned through an elastic shrink: worker 1 crashes
mid-operation, the collective re-plans over the three survivors and
resends the aborted operation, the refused restart is logged, and every
link flaps — all inside the run, so the pins cover the fault-mode step
machinery (per-link sends, chunk drops, the shrunk plan) end to end.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.cluster.trainer import run_training
from repro.experiments.chaos import default_plan
from repro.runner.registry import build_factory
from repro.trace import chrome_trace_dict

#: Digests of :func:`trace_digest` for each collective shape.
PINNED = {
    "ring": "07095aace737789e5fa17e5f96e9e2949c190b01d10b8af944e8e059171138ad",
    "hierarchical": "85fc1aea2ac91e6901da764f79abbdf0d9c8ff3fa27cf6d50b5a1f8096b43dd7",
}

#: Crash of worker 1 at 1.1 s (restart refused at 1.6 s) and a link flap
#: over 2.0-2.5 s, all inside the ~4 s run, plus 2% chunk drops.
SHRINK_PLAN = default_plan(
    crash_at=1.1,
    restart_after=0.5,
    flap_at=2.0,
    flap_duration=0.5,
    backend="allreduce",
)

#: (digest, end time) of each collective shape through :data:`SHRINK_PLAN`.
PINNED_SHRINK = {
    "ring": (
        "157879904e1bd262c42fec717f8718d289f6f15f4cc934dda9b6324afae785e5",
        3.9848341513958263,
    ),
    "hierarchical": (
        "b66dc926c6874339d0d87d879abdad5428e7ab0ac9b3461ae9445d58737ff921",
        3.982328578430889,
    ),
}


def traced_run(config) -> tuple[str, float]:
    """SHA-256 of the traced run's Chrome trace JSON (sorted keys), and
    the run's end time."""
    result = run_training(replace(config, trace=True), build_factory("prophet"))
    payload = json.dumps(chrome_trace_dict(result.trace), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest(), result.end_time


def trace_digest(config) -> str:
    """SHA-256 of the traced run's Chrome trace JSON (sorted keys)."""
    return traced_run(config)[0]


def collective_config(tiny_config, collective: str):
    return replace(
        tiny_config,
        n_workers=4,
        backend="allreduce",
        collective=collective,
        collective_group_size=2,
    )


@pytest.mark.parametrize("collective", sorted(PINNED))
def test_collective_trace_is_pinned(tiny_config, collective):
    config = collective_config(tiny_config, collective)
    assert trace_digest(config) == PINNED[collective]


@pytest.mark.parametrize("collective", sorted(PINNED_SHRINK))
def test_collective_shrink_trace_is_pinned(tiny_config, collective):
    config = replace(collective_config(tiny_config, collective), faults=SHRINK_PLAN)
    assert traced_run(config) == PINNED_SHRINK[collective]
