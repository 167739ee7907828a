"""Pinned Chrome traces of collective runs.

A traced ring run and a traced hierarchical run (4 workers, groups of 2)
on the tiny model export byte-stable Chrome trace JSON.  Their SHA-256
digests are pinned here, so any change to the per-link transfer spans,
the link utilization counters, or the ``comm`` spans of the collective
tier (event order, timestamps, arguments) shows up as a digest mismatch.

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
    "ring": "63c4086c52854acf1a7bf9e4aa6daecb3d69b1bda7fa957f2667fe9b5beaa18a",
    "hierarchical": "c4dc9333367d2cae6c55041056306e2db35cf8f60997593ad7c44f1cd12028ff",
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
        "8f02021e040a63e45299bfc42b31a63d788bfb5e27539a52ca020574f0d34d1b",
        3.9848341513958263,
    ),
    "hierarchical": (
        "b4d293d6527885351048712ed1c08adce2ccb8f4c0ccfbee6aa911e71e8089a3",
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
